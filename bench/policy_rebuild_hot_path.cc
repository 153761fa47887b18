// Rebuild hot-path perf smoke: per-observation cost of the bucketing
// engine as the record history grows, old engine vs the incremental one.
//
// The legacy series is a faithful replica of the pre-incremental
// BucketingPolicy (see git history of core/bucketing_policy.cpp): every
// observation does an O(n) sorted insert into an AoS record vector, and
// every predict rebuilds the full state — prefix sums over all n records,
// break-point computation, validated BucketSet construction, linear-scan
// sampling. The incremental series run the production engine twice:
//
//   * k = 1 (default schedule): rebuild before every predict, exactly the
//     legacy semantics. Every RNG draw must match the legacy series
//     BITWISE — the checksum gate below fails the binary otherwise.
//   * scheduled (growth = 1/64): rebuild points spread out geometrically
//     with the history size; observes stage in O(1) and most predicts
//     sample the standing bucket set. The final forced flush must produce
//     the legacy engine's exact bucket configuration (same record
//     multiset), which the second checksum gate verifies.
//
// Emits BENCH_rebuild.json (CI uploads it as the perf-smoke artifact) and,
// when given a committed baseline, enforces a 3x regression guard on the
// scheduled-engine ns/cycle at the largest history size.
//
// Usage: policy_rebuild_hot_path [out.json] [baseline.json]

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/bucket.hpp"
#include "core/greedy_bucketing.hpp"
#include "core/record.hpp"
#include "core/record_store.hpp"
#include "util/rng.hpp"

#include "guard.hpp"

namespace {

using tora::core::BucketSet;
using tora::core::GreedyBucketing;
using tora::core::Record;
using tora::core::SortedRecords;
using tora::util::Rng;

std::uint64_t mix(std::uint64_t h, double v) {
  return (h ^ std::bit_cast<std::uint64_t>(v)) * 1099511628211ull;
}

std::uint64_t bucket_checksum(const BucketSet& set) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& b : set.buckets()) {
    h = mix(h, b.rep);
    h = mix(h, b.prob);
    h = mix(h, b.weighted_mean);
    h = mix(h, b.sig_sum);
  }
  return h;
}

/// The pre-incremental engine: sorted insertion per observe, full rebuild
/// per predict. Break indices come from a scratch GreedyBucketing (break
/// computation consumes no sampler state), so the replica pays exactly the
/// same break-point cost the old engine paid in-line.
class LegacyEngine {
 public:
  explicit LegacyEngine(std::uint64_t sampler_seed)
      : rng_(sampler_seed), oracle_(Rng(0)) {}

  void observe(double value, double significance) {
    const auto pos = std::upper_bound(
        records_.begin(), records_.end(), value,
        [](double v, const Record& r) { return v < r.value; });
    records_.insert(pos, {value, significance});
    dirty_ = true;
  }

  double predict() {
    if (dirty_ || !built_) rebuild();
    return set_.sample_allocation(rng_);
  }

  const BucketSet& buckets() {
    if (dirty_ || !built_) rebuild();
    return set_;
  }

  std::size_t rebuild_count() const { return rebuilds_; }

 private:
  void rebuild() {
    const std::size_t n = records_.size();
    values_.resize(n);
    sigs_.resize(n);
    sig_prefix_.assign(n + 1, 0.0);
    vsig_prefix_.assign(n + 1, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      values_[i] = records_[i].value;
      sigs_[i] = records_[i].significance;
      sig_prefix_[i + 1] = sig_prefix_[i] + sigs_[i];
      vsig_prefix_[i + 1] = vsig_prefix_[i] + values_[i] * sigs_[i];
    }
    const SortedRecords view{values_, sigs_, sig_prefix_, vsig_prefix_};
    set_ = BucketSet::from_break_indices(records_, oracle_.break_indices(view));
    dirty_ = false;
    built_ = true;
    ++rebuilds_;
  }

  Rng rng_;
  GreedyBucketing oracle_;
  std::vector<Record> records_;
  std::vector<double> values_, sigs_, sig_prefix_, vsig_prefix_;
  BucketSet set_;
  bool dirty_ = false;
  bool built_ = false;
  std::size_t rebuilds_ = 0;
};

std::vector<double> make_values(std::size_t n) {
  Rng rng(2024);
  std::vector<double> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    double x = rng.normal(8192.0, 2048.0);
    if (x < 1.0) x = 1.0;
    v.push_back(x);
  }
  return v;
}

struct SeriesResult {
  double ns_per_cycle = 0.0;
  double rebuilds_per_s = 0.0;
  std::uint64_t draw_checksum = 0;
  std::uint64_t final_buckets = 0;
};

constexpr std::uint64_t kSamplerSeed = 77;

template <typename Engine, typename Finish>
SeriesResult run_series(Engine& engine, const std::vector<double>& values,
                        std::size_t history, std::size_t cycles,
                        std::size_t rebuilds_before, Finish finish) {
  for (std::size_t i = 0; i < history; ++i) {
    engine.observe(values[i], static_cast<double>(i) + 1.0);
  }
  SeriesResult r;
  std::uint64_t h = 1469598103934665603ull;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < cycles; ++c) {
    engine.observe(values[history + c],
                   static_cast<double>(history + c) + 1.0);
    h = mix(h, engine.predict());
  }
  const auto dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.ns_per_cycle = dt * 1e9 / static_cast<double>(cycles);
  r.rebuilds_per_s =
      static_cast<double>(engine.rebuild_count() - rebuilds_before) / dt;
  r.draw_checksum = h;
  r.final_buckets = finish(engine);
  return r;
}

struct SizeRow {
  std::size_t history = 0;
  std::size_t cycles = 0;
  SeriesResult legacy, k1, sched;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_rebuild.json";
  const std::string baseline_path = argc > 2 ? argv[2] : "";

  const std::vector<std::size_t> sizes{1000, 10000, 100000};
  std::vector<SizeRow> rows;
  bool all_match = true;

  for (std::size_t n : sizes) {
    SizeRow row;
    row.history = n;
    row.cycles = std::clamp<std::size_t>(2000000 / n, 50, 2000);
    const auto values = make_values(n + row.cycles);

    {
      LegacyEngine legacy(kSamplerSeed);
      row.legacy = run_series(legacy, values, n, row.cycles, 0,
                              [](LegacyEngine& e) {
                                return bucket_checksum(e.buckets());
                              });
    }
    {
      GreedyBucketing k1{Rng(kSamplerSeed)};
      row.k1 = run_series(k1, values, n, row.cycles, k1.rebuild_count(),
                          [](GreedyBucketing& e) {
                            return bucket_checksum(e.fresh_buckets());
                          });
    }
    {
      GreedyBucketing sched{Rng(kSamplerSeed)};
      sched.set_rebuild_schedule({1.0 / 64.0});
      row.sched = run_series(sched, values, n, row.cycles,
                             sched.rebuild_count(), [](GreedyBucketing& e) {
                               return bucket_checksum(e.fresh_buckets());
                             });
    }

    const bool k1_match =
        row.k1.draw_checksum == row.legacy.draw_checksum &&
        row.k1.final_buckets == row.legacy.final_buckets;
    const bool sched_match =
        row.sched.final_buckets == row.legacy.final_buckets;
    if (!k1_match) {
      std::cerr << "history " << n
                << ": k=1 engine diverged from the legacy engine\n";
      all_match = false;
    }
    if (!sched_match) {
      std::cerr << "history " << n
                << ": scheduled engine's flushed buckets diverged\n";
      all_match = false;
    }
    std::cout << "history " << n << " (" << row.cycles << " cycles)\n"
              << "  legacy:      " << row.legacy.ns_per_cycle
              << " ns/cycle, " << row.legacy.rebuilds_per_s << " rebuilds/s\n"
              << "  incr (k=1):  " << row.k1.ns_per_cycle << " ns/cycle, "
              << row.k1.rebuilds_per_s << " rebuilds/s, draws "
              << (k1_match ? "match" : "MISMATCH") << "\n"
              << "  incr (sched):" << row.sched.ns_per_cycle
              << " ns/cycle, " << row.sched.rebuilds_per_s
              << " rebuilds/s, flush " << (sched_match ? "match" : "MISMATCH")
              << ", speedup "
              << row.legacy.ns_per_cycle / row.sched.ns_per_cycle << "x\n";
    rows.push_back(row);
  }

  const SizeRow& top = rows.back();
  const double speedup_max = top.legacy.ns_per_cycle / top.sched.ns_per_cycle;
  const double guard = top.sched.ns_per_cycle;

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"benchmark\": \"policy_rebuild_hot_path\",\n"
      << "  \"policy\": \"greedy_bucketing\",\n"
      << "  \"scheduled_growth\": " << 1.0 / 64.0 << ",\n"
      << "  \"series\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SizeRow& r = rows[i];
    const bool k1_match = r.k1.draw_checksum == r.legacy.draw_checksum;
    out << "    {\"history\": " << r.history << ", \"cycles\": " << r.cycles
        << ",\n"
        << "     \"legacy_ns_per_cycle\": " << r.legacy.ns_per_cycle
        << ", \"legacy_rebuilds_per_s\": " << r.legacy.rebuilds_per_s << ",\n"
        << "     \"incremental_k1_ns_per_cycle\": " << r.k1.ns_per_cycle
        << ", \"incremental_k1_rebuilds_per_s\": " << r.k1.rebuilds_per_s
        << ",\n"
        << "     \"incremental_scheduled_ns_per_cycle\": "
        << r.sched.ns_per_cycle << ", \"incremental_scheduled_rebuilds_per_s\": "
        << r.sched.rebuilds_per_s << ",\n"
        << "     \"speedup_k1\": " << r.legacy.ns_per_cycle / r.k1.ns_per_cycle
        << ", \"speedup_scheduled\": "
        << r.legacy.ns_per_cycle / r.sched.ns_per_cycle << ",\n"
        << "     \"k1_draws_match\": " << (k1_match ? "true" : "false")
        << ", \"scheduled_flush_matches\": "
        << (r.sched.final_buckets == r.legacy.final_buckets ? "true" : "false")
        << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"speedup_at_max_history\": " << speedup_max << ",\n"
      << "  \"guard_ns_per_cycle\": " << guard << ",\n"
      << "  \"checksums_match\": " << (all_match ? "true" : "false") << "\n"
      << "}\n";

  if (!all_match) return 1;

  if (!baseline_path.empty()) {
    const double base =
        tora::bench::read_guard(baseline_path, "guard_ns_per_cycle");
    if (!tora::bench::within_guard(guard, base, tora::bench::Better::Lower)) {
      std::cerr << "perf regression: scheduled engine " << guard
                << " ns/cycle at " << top.history
                << " records exceeds 3x the committed baseline (" << base
                << " ns/cycle)\n";
      return 1;
    }
    std::cout << "regression guard: " << guard << " ns/cycle vs baseline "
              << base << " ns/cycle (limit 3x)\n";
  }
  return 0;
}
