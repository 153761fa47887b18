#pragma once

// A DispatchDriver over two callables, so that a test scripts a dispatch
// pass's placements and commits inline:
//
//   ScriptedDriver driver(
//       [&](std::uint64_t task, const ResourceVector& alloc)
//           -> std::optional<std::uint64_t> { ... },
//       [&](std::uint64_t task, std::uint64_t worker,
//           const ResourceVector& alloc) { ... });
//   core.dispatch_pass(driver);
//
// It defers nothing; `pool` is what an arbitrated pass reads as the pool
// capacity.

#include <cstdint>
#include <optional>
#include <utility>

#include "core/lifecycle/dispatch_core.hpp"
#include "core/resources.hpp"

namespace tora::tests {

template <typename Place, typename Commit>
class ScriptedDriver final : public core::lifecycle::DispatchDriver {
 public:
  ScriptedDriver(Place place, Commit commit, core::ResourceVector pool = {})
      : place_(std::move(place)), commit_(std::move(commit)), pool_(pool) {}

  std::optional<std::uint64_t> place(
      std::uint64_t task, const core::ResourceVector& alloc) override {
    return place_(task, alloc);
  }
  void commit(std::uint64_t task, std::uint64_t worker,
              const core::ResourceVector& alloc) override {
    commit_(task, worker, alloc);
  }
  core::ResourceVector pool_capacity() const override { return pool_; }

 private:
  Place place_;
  Commit commit_;
  core::ResourceVector pool_;
};

}  // namespace tora::tests
