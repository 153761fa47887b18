#pragma once

// A DispatchDriver over callables, so that a test scripts a dispatch pass's
// placements and commits inline:
//
//   ScriptedDriver driver(
//       [&](std::uint64_t task, const ResourceVector& alloc)
//           -> std::optional<std::uint64_t> { ... },
//       [&](std::uint64_t task, std::uint64_t worker,
//           const ResourceVector& alloc) { ... });
//   core.dispatch_pass(driver);
//
// `pool` is what an arbitrated pass reads as the pool capacity. The
// optional `may_place` answers the pass's early-end query (default: always
// true, so every pass is a full scan) and the optional `defer` holds tasks
// back (default: none).

#include <cstdint>
#include <optional>
#include <utility>

#include "core/lifecycle/dispatch_core.hpp"
#include "core/resources.hpp"

namespace tora::tests {

struct AlwaysMayPlace {
  bool operator()(const core::ResourceVector&) const { return true; }
};

struct NeverDefer {
  bool operator()(std::uint64_t) const { return false; }
};

template <typename Place, typename Commit, typename MayPlace = AlwaysMayPlace,
          typename Defer = NeverDefer>
class ScriptedDriver final : public core::lifecycle::DispatchDriver {
 public:
  ScriptedDriver(Place place, Commit commit, core::ResourceVector pool = {},
                 MayPlace may_place = {}, Defer defer = {})
      : place_(std::move(place)),
        commit_(std::move(commit)),
        pool_(pool),
        may_place_(std::move(may_place)),
        defer_(std::move(defer)) {}

  std::optional<std::uint64_t> place(
      std::uint64_t task, const core::ResourceVector& alloc) override {
    return place_(task, alloc);
  }
  void commit(std::uint64_t task, std::uint64_t worker,
              const core::ResourceVector& alloc) override {
    commit_(task, worker, alloc);
  }
  bool defer(std::uint64_t task) override { return defer_(task); }
  bool may_place(const core::ResourceVector& floor) const override {
    return may_place_(floor);
  }
  core::ResourceVector pool_capacity() const override { return pool_; }

 private:
  Place place_;
  Commit commit_;
  core::ResourceVector pool_;
  MayPlace may_place_;
  Defer defer_;
};

}  // namespace tora::tests
