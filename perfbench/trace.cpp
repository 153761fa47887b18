#include "trace.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>

namespace perfbench {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- LogHistogram ----------------------------------------------------------

namespace {

// Values below 8 get one bucket each; above, the leading bit's position
// picks the octave and the next three bits the bucket within it.
std::size_t bucket_of(std::uint64_t v) noexcept {
  if (v < 8) return static_cast<std::size_t>(v);
  const int e = std::bit_width(v) - 1;
  return static_cast<std::size_t>(e - 2) * 8 + ((v >> (e - 3)) & 7);
}

double bucket_mid(std::size_t i) noexcept {
  if (i < 8) return static_cast<double>(i);
  const int e = static_cast<int>(i / 8) + 2;
  const double lo = std::ldexp(8.0 + static_cast<double>(i % 8), e - 3);
  const double hi = std::ldexp(9.0 + static_cast<double>(i % 8), e - 3);
  return 0.5 * (lo + hi);
}

}  // namespace

void LogHistogram::add(std::int64_t ns) noexcept {
  const std::int64_t v = std::max<std::int64_t>(0, ns);
  ++buckets_[bucket_of(static_cast<std::uint64_t>(v))];
  ++count_;
}

void LogHistogram::merge(const LogHistogram& other) noexcept {
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double LogHistogram::quantile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  const double want = std::ceil(q * static_cast<double>(count_));
  const std::uint64_t rank =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(want));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) return bucket_mid(i);
  }
  return bucket_mid(buckets_.size() - 1);
}

void CallStats::merge(const CallStats& other) noexcept {
  calls += other.calls;
  timed += other.timed;
  timed_ns += other.timed_ns;
  hist.merge(other.hist);
}

// ---- Tracer ----------------------------------------------------------------

Tracer::Tracer() {
  root_ = top_name_ = intern("root");
  // The cheapest of many back-to-back clock-read pairs: what timing a call
  // adds to its measured duration even when the call itself costs nothing.
  std::int64_t best = INT64_MAX;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t a = now_ns();
    best = std::min(best, now_ns() - a);
  }
  overhead_ns_ = best;
  epoch_ns_ = now_ns();
}

std::uint32_t Tracer::intern(std::string_view name) {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) {
    return static_cast<std::uint32_t>(it - names_.begin());
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

void Tracer::open(std::uint32_t name) {
  Span s;
  s.name = name;
  s.id = next_id_++;
  s.parent = stack_.empty() ? kNoSpan : stack_.back().id;
  stack_.push_back(s);
  top_name_ = name;
  stack_.back().start_ns = now_ns();
}

void Tracer::close() {
  Span s = stack_.back();
  s.end_ns = now_ns();
  stack_.pop_back();
  top_name_ = stack_.empty() ? root_ : stack_.back().name;
  charge_child(s.duration_ns());
  if (s.name >= totals_.size()) totals_.resize(s.name + 1);
  SpanTotals& t = totals_[s.name];
  ++t.count;
  t.busy_ns += s.duration_ns();
  t.self_ns += s.self_ns();
  t.max_ns = std::max(t.max_ns, s.duration_ns());
  if (records_.size() < kMaxRecords) records_.push_back(s);
}

SpanTotals Tracer::totals(std::string_view name) const {
  const auto it = std::find(names_.begin(), names_.end(), name);
  const auto id = static_cast<std::size_t>(it - names_.begin());
  return id < totals_.size() ? totals_[id] : SpanTotals{};
}

void Tracer::write_tsv(std::ostream& out) const {
  out << "span\tid\tname\tparent\tstart_ns\tend_ns\tself_ns\n";
  for (const Span& s : records_) {
    out << "span\t" << s.id << '\t' << names_[s.name] << '\t'
        << (s.parent == kNoSpan ? -1 : static_cast<long long>(s.parent))
        << '\t' << s.start_ns - epoch_ns_ << '\t' << s.end_ns - epoch_ns_
        << '\t' << s.self_ns() << '\n';
  }
  out << "calls\tlayer\tparent\tcalls\ttimed\tbusy_s\tp50_ns\tp99_ns\n";
  for (const HotLayer* layer : layers_) {
    const auto& by_parent = layer->by_parent();
    for (std::size_t p = 0; p < by_parent.size(); ++p) {
      const CallStats& c = by_parent[p];
      if (c.calls == 0) continue;
      out << "calls\t" << layer->name() << '\t' << names_[p] << '\t' << c.calls
          << '\t' << c.timed << '\t' << c.busy_s() << '\t'
          << c.hist.quantile(0.5) << '\t' << c.hist.quantile(0.99) << '\n';
    }
  }
}

// ---- HotLayer --------------------------------------------------------------

HotLayer::HotLayer(Tracer& tracer, std::string_view name, std::uint32_t stride)
    : tracer_(tracer),
      name_(name),
      stride_(std::max<std::uint32_t>(stride, 1)),
      countdown_(stride_) {
  tracer_.register_layer(this);
}

CallStats HotLayer::total() const {
  CallStats sum;
  for (const CallStats& c : stats_) sum.merge(c);
  return sum;
}

// ---- Allocator decorator ---------------------------------------------------

namespace {

class TimedPolicy final : public core::ResourcePolicy {
 public:
  TimedPolicy(core::ResourcePolicyPtr inner, AllocLayers& layers)
      : inner_(std::move(inner)), layers_(layers) {}

  void observe(double peak_value, double significance) override {
    timed(layers_.observe,
          [&] { inner_->observe(peak_value, significance); });
  }
  double predict() override {
    return timed(layers_.predict, [&] { return inner_->predict(); });
  }
  double retry(double failed_alloc) override {
    return timed(layers_.retry, [&] { return inner_->retry(failed_alloc); });
  }
  std::string name() const override { return inner_->name(); }
  std::size_t record_count() const override { return inner_->record_count(); }
  void flush_observations() override { inner_->flush_observations(); }
  std::string sampler_state() const override { return inner_->sampler_state(); }
  void restore_sampler_state(std::string_view state) override {
    inner_->restore_sampler_state(state);
  }

 private:
  core::ResourcePolicyPtr inner_;
  AllocLayers& layers_;
};

}  // namespace

core::TaskAllocator make_traced_allocator(std::string_view policy,
                                          std::uint64_t seed,
                                          const core::ResourceVector& capacity,
                                          const core::RegistryOptions& opts,
                                          AllocLayers& layers) {
  const core::AllocatorConfig config =
      core::make_allocator(policy, seed, capacity, opts).config();
  core::PolicyFactory inner = core::make_policy_factory(policy, seed, opts);
  core::PolicyFactory wrapped =
      [inner = std::move(inner), &layers](
          core::ResourceKind kind,
          const core::AllocatorConfig& cfg) -> core::ResourcePolicyPtr {
    return std::make_unique<TimedPolicy>(inner(kind, cfg), layers);
  };
  return core::TaskAllocator(std::string(policy), std::move(wrapped), config);
}

// ---- Storage decorator -----------------------------------------------------

namespace {

class TimedAppend final : public core::recovery::AppendHandle {
 public:
  TimedAppend(std::unique_ptr<core::recovery::AppendHandle> inner,
              StorageLayers& layers)
      : inner_(std::move(inner)), layers_(layers) {}

  void append(std::string_view bytes) override {
    timed(layers_.append, [&] { inner_->append(bytes); });
  }
  void sync() override {
    timed(layers_.sync, [&] { inner_->sync(); });
  }

 private:
  std::unique_ptr<core::recovery::AppendHandle> inner_;
  StorageLayers& layers_;
};

}  // namespace

std::unique_ptr<core::recovery::AppendHandle> TimedStorage::open_append(
    const std::string& name) {
  return std::make_unique<TimedAppend>(inner_.open_append(name), layers_);
}

void TimedStorage::write_file_durable(const std::string& name,
                                      std::string_view bytes) {
  layers_.snapshot_bytes += bytes.size();
  timed(layers_.snapshot_write,
        [&] { inner_.write_file_durable(name, bytes); });
}

}  // namespace perfbench
