#pragma once

// Tracing for the traced benchmark run, recorded entirely from outside the
// program: spans around calls into each layer, and decorators that time the
// layers' public virtual interfaces (ResourcePolicy, Storage, Channel).

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/policy.hpp"
#include "core/recovery/storage.hpp"
#include "core/registry.hpp"
#include "core/task_allocator.hpp"
#include "proto/channel.hpp"

namespace perfbench {

namespace core = tora::core;
namespace proto = tora::proto;

/// steady_clock in nanoseconds.
std::int64_t now_ns() noexcept;

/// Latency histogram with 8 log-spaced buckets per power of two (≤ 6.25%
/// relative error), covering 1 ns to 2^62 ns.
class LogHistogram {
 public:
  void add(std::int64_t ns) noexcept;
  void merge(const LogHistogram& other) noexcept;
  /// The value at quantile `q` (0..1): the midpoint of the bucket holding
  /// it. 0 when empty.
  double quantile(double q) const noexcept;

 private:
  static constexpr int kSub = 8;
  std::array<std::uint64_t, 64 * kSub> buckets_{};
  std::uint64_t count_ = 0;
};

/// Calls into one hot layer under one kind of parent span.
struct CallStats {
  std::uint64_t calls = 0;  ///< every call
  std::uint64_t timed = 0;  ///< the sampled calls that were timed
  std::int64_t timed_ns = 0;
  LogHistogram hist;

  /// Busy time extrapolated from the timed sample to every call.
  double busy_s() const noexcept {
    return timed == 0 ? 0.0
                      : 1e-9 * static_cast<double>(timed_ns) *
                            static_cast<double>(calls) /
                            static_cast<double>(timed);
  }
  void merge(const CallStats& other) noexcept;
};

/// One span: a call into a layer at a coarse boundary. `child_ns` is the
/// part of [start, end) covered by child spans and by timed hot-layer calls,
/// so duration - child_ns is the span's self time.
struct Span {
  std::uint32_t name = 0;
  std::uint64_t id = 0;      ///< in order of opening, from 0
  std::uint64_t parent = 0;  ///< the enclosing span's id, or kNoSpan
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t child_ns = 0;

  std::int64_t duration_ns() const noexcept { return end_ns - start_ns; }
  std::int64_t self_ns() const noexcept { return duration_ns() - child_ns; }
};

inline constexpr std::uint64_t kNoSpan = ~std::uint64_t{0};

/// Every closed span of one name, summed.
struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t busy_ns = 0;
  std::int64_t self_ns = 0;
  std::int64_t max_ns = 0;
};

class HotLayer;

/// Span recorder. Spans open and close in stack order. Closing a span adds
/// it to its name's totals and keeps its record in memory until write_tsv(),
/// up to kMaxRecords records, so a run's memory does not grow with its
/// length. Hot layers (HotLayer) are not spans: their calls are aggregated
/// per parent span name, and the time of their timed calls is charged to
/// the innermost open span as child time.
class Tracer {
 public:
  static constexpr std::size_t kMaxRecords = 250000;

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::uint32_t intern(std::string_view name);
  const std::string& name(std::uint32_t id) const { return names_.at(id); }

  void open(std::uint32_t name);
  void close();

  /// Name of the innermost open span (the "root" name when none is open).
  std::uint32_t top_name() const noexcept { return top_name_; }
  /// Charges `ns` of child time to the innermost open span.
  void charge_child(std::int64_t ns) noexcept {
    if (!stack_.empty()) stack_.back().child_ns += ns;
  }

  /// Cost of one pair of clock reads, subtracted from every timed call.
  std::int64_t clock_overhead_ns() const noexcept { return overhead_ns_; }

  /// Totals of the closed spans named `name` (zero when none closed).
  SpanTotals totals(std::string_view name) const;
  /// Spans opened so far.
  std::uint64_t span_count() const noexcept { return next_id_; }
  void register_layer(HotLayer* layer) { layers_.push_back(layer); }

  /// Writes the kept span records (`span` rows, in closing order) and every
  /// hot layer's per-parent aggregate (`calls` rows) as tab-separated text.
  void write_tsv(std::ostream& out) const;

 private:
  std::vector<std::string> names_;
  std::uint32_t root_ = 0;
  std::uint32_t top_name_ = 0;
  std::uint64_t next_id_ = 0;
  std::vector<Span> stack_;
  std::vector<Span> records_;
  std::vector<SpanTotals> totals_;  ///< indexed by name id
  std::vector<HotLayer*> layers_;
  std::int64_t overhead_ns_ = 0;
  std::int64_t epoch_ns_ = 0;  ///< span times in the TSV are relative to it
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::uint32_t name) : tracer_(tracer) {
    tracer_.open(name);
  }
  ~ScopedSpan() { tracer_.close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
};

/// A layer whose calls are too many to record as spans. Every call is
/// counted; every `stride`-th call is timed, and the busy time is
/// extrapolated from that fixed sample.
class HotLayer {
 public:
  HotLayer(Tracer& tracer, std::string_view name, std::uint32_t stride = 1);
  HotLayer(const HotLayer&) = delete;
  HotLayer& operator=(const HotLayer&) = delete;

  /// Returns the start time of a timed call, or -1 for an untimed one.
  std::int64_t begin() {
    current_ = &stats_for(tracer_.top_name());
    ++current_->calls;
    if (--countdown_ != 0) return -1;
    countdown_ = stride_;
    return now_ns();
  }
  void end(std::int64_t start) noexcept {
    if (start < 0) return;
    std::int64_t ns = now_ns() - start - tracer_.clock_overhead_ns();
    if (ns < 0) ns = 0;
    ++current_->timed;
    current_->timed_ns += ns;
    current_->hist.add(ns);
    tracer_.charge_child(ns * static_cast<std::int64_t>(stride_));
  }

  const std::string& name() const noexcept { return name_; }
  /// Aggregate under every parent.
  CallStats total() const;
  /// Per parent name id (entries for unseen parents are empty).
  const std::vector<CallStats>& by_parent() const noexcept { return stats_; }

 private:
  CallStats& stats_for(std::uint32_t parent) {
    if (parent >= stats_.size()) stats_.resize(parent + 1);
    return stats_[parent];
  }

  Tracer& tracer_;
  std::string name_;
  std::uint32_t stride_;
  std::uint32_t countdown_;  ///< calls left until the next timed one
  std::vector<CallStats> stats_;
  CallStats* current_ = nullptr;
};

/// Times a call into a hot layer.
template <typename F>
decltype(auto) timed(HotLayer& layer, F&& f) {
  struct Guard {
    HotLayer& layer;
    std::int64_t start;
    ~Guard() { layer.end(start); }
  } guard{layer, layer.begin()};
  return f();
}

/// The allocator's three hot entry points.
struct AllocLayers {
  explicit AllocLayers(Tracer& t)
      : predict(t, "alloc.predict", 16),
        retry(t, "alloc.retry"),
        observe(t, "alloc.observe") {}
  HotLayer predict;
  HotLayer retry;
  HotLayer observe;
};

/// A TaskAllocator for `policy` whose every ResourcePolicy, as built by
/// make_policy_factory, is wrapped in a timing decorator. It is given the
/// AllocatorConfig make_allocator makes, so it allocates exactly as the
/// untraced one does.
core::TaskAllocator make_traced_allocator(std::string_view policy,
                                          std::uint64_t seed,
                                          const core::ResourceVector& capacity,
                                          const core::RegistryOptions& opts,
                                          AllocLayers& layers);

/// The recovery log's storage traffic: journal appends and syncs (through
/// the append handles TimedStorage hands out) and snapshot writes
/// (write_file_durable, the only durable whole-file write the log makes).
struct StorageLayers {
  explicit StorageLayers(Tracer& t)
      : append(t, "journal.append"),
        sync(t, "journal.sync"),
        snapshot_write(t, "snapshot.write") {}
  HotLayer append;
  HotLayer sync;
  HotLayer snapshot_write;
  std::uint64_t snapshot_bytes = 0;
};

/// Storage decorator that times every call into `layers` and forwards it.
class TimedStorage final : public core::recovery::Storage {
 public:
  TimedStorage(core::recovery::Storage& inner, StorageLayers& layers)
      : inner_(inner), layers_(layers) {}

  std::unique_ptr<core::recovery::AppendHandle> open_append(
      const std::string& name) override;
  void write_file_durable(const std::string& name,
                          std::string_view bytes) override;
  void rename(const std::string& from, const std::string& to) override {
    inner_.rename(from, to);
  }
  void remove(const std::string& name) override { inner_.remove(name); }
  std::optional<std::string> read_file(const std::string& name) const override {
    return inner_.read_file(name);
  }
  std::vector<std::string> list() const override { return inner_.list(); }
  void on_crash() override { inner_.on_crash(); }

 private:
  core::recovery::Storage& inner_;
  StorageLayers& layers_;
};

/// A lossless in-order Channel that also keeps a copy of every line sent,
/// for the codec replay.
class CapturingChannel final : public proto::Channel {
 public:
  explicit CapturingChannel(std::vector<std::string>& sink) : sink_(sink) {}
  void send(std::string line) override {
    sink_.push_back(line);
    Channel::send(std::move(line));
  }

 private:
  std::vector<std::string>& sink_;
};

}  // namespace perfbench
