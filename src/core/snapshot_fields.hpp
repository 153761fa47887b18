#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "core/resources.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace tora::core {

/// Typed refusal of a snapshot: the section and field being decoded and why
/// the bytes were refused. Every snapshot load throws it, whether a field
/// check, a count, a truncated payload or a post-load cross-field check
/// failed. what() reads "snapshot <section>.<field>: <reason>".
class SnapshotError : public std::runtime_error {
 public:
  SnapshotError(std::string section, std::string field, std::string reason);

  const std::string& section() const noexcept { return section_; }
  const std::string& field() const noexcept { return field_; }
  const std::string& reason() const noexcept { return reason_; }

 private:
  std::string section_;
  std::string field_;
  std::string reason_;
};

/// One field list per snapshot section. A section type lists its persisted
/// members once, in byte order, in a static `fields()`:
///
///   static constexpr auto fields() {
///     return snapshot::section("StormDetector",
///         snapshot::field("window", &StormDetector::window_,
///                         snapshot::kFinite | snapshot::kAscending),
///         snapshot::field("degraded", &StormDetector::degraded_), ...);
///   }
///
/// and that list alone drives save, load and every refusal. The encoding
/// follows the member's type (bool and enums as u8, u32, u64, doubles as
/// IEEE-754 bits, strings u32-length-prefixed, sequences and maps behind a
/// u64 count, nested sections by their own lists); the rule adds the checks
/// load applies. An optional post-load step (`section(name, &T::after_load,
/// ...)`) rebuilds derived state and runs the cross-field checks. A type
/// with its own entry points instead (a polymorphic Arbiter, the event
/// queue, the allocator's free functions found by ADL as
/// snapshot_save/snapshot_load) is written and read through them. The walk
/// is resolved at compile time: each field compiles to direct ByteWriter /
/// ByteReader calls.
namespace snapshot {

/// What load checks on a field beyond its type's own checks (a bool byte
/// is 0 or 1, a count fits the bytes left). Double checks apply to every
/// double in the field: each element, each ResourceVector dimension.
struct Rule {
  unsigned bits = 0;
  std::uint64_t max = 0;  ///< enums: the largest accepted value

  constexpr Rule operator|(Rule o) const { return {bits | o.bits, max | o.max}; }
  constexpr bool has(Rule o) const { return (bits & o.bits) == o.bits; }
  /// The part that applies to a sequence's elements.
  constexpr Rule element() const { return {bits & 7u, max}; }
};

inline constexpr Rule kFinite{1};
inline constexpr Rule kNonNegative{1 | 2};  ///< finite and >= 0
inline constexpr Rule kUnit{1 | 2 | 4};     ///< in [0, 1]
inline constexpr Rule kAscending{8};  ///< doubles that never descend
/// A u64 count that must equal the current size (the shape the object was
/// constructed with for its workload or deployment).
inline constexpr Rule kSameSize{16};
inline constexpr Rule kFixedSize{32};  ///< no count: the current size
/// An enum whose values above `last` are refused.
template <class E>
constexpr Rule at_most(E last) {
  return {0, static_cast<std::uint64_t>(last)};
}

/// A member of T encoded by its type.
template <class T, class M>
struct Field {
  const char* name;
  M T::*member;
  Rule rule;
};

/// A value the object already holds (a version, a count, a name): save
/// writes fn(object), load refuses anything else.
template <class Fn>
struct Expect {
  const char* name;
  Fn fn;
};

/// A value reached through accessors: save writes get(object), load
/// decodes a value of the same type and hands it to set(object, value).
template <class Get, class Set>
struct Via {
  const char* name;
  Get get;
  Set set;
  Rule rule;
};

/// A section: its name (the SnapshotError section), its optional post-load
/// step (nullptr for none) and its fields in byte order.
template <class After, class... F>
struct Section {
  const char* name;
  After after;
  std::tuple<F...> fields;
};

template <class... F>
constexpr Section<std::nullptr_t, F...> section(const char* name, F... f) {
  return {name, nullptr, {f...}};
}
template <class T, class... F>
constexpr Section<void (T::*)(), F...> section(const char* name,
                                               void (T::*after)(), F... f) {
  return {name, after, {f...}};
}
template <class T, class M>
constexpr Field<T, M> field(const char* name, M T::*member, Rule rule = {}) {
  return {name, member, rule};
}
template <class Fn>
constexpr Expect<Fn> expect(const char* name, Fn fn) {
  return {name, fn};
}
template <class Get, class Set>
constexpr Via<Get, Set> via(const char* name, Get get, Set set,
                            Rule rule = {}) {
  return {name, get, set, rule};
}

/// Leaf kinds a load reads (trace() reports them).
enum class Kind : std::uint8_t { Bool, Enum, U32, U64, F64, Count, Length };

/// One value a load read: where it sits in the body and what it is.
struct Leaf {
  std::string section;
  std::string field;
  std::size_t offset;
  Kind kind;
  std::uint64_t max;  ///< Enum: the largest accepted value
};

namespace detail {
/// What trace() collects: the values read from the first reader a load
/// reads (the body's), not from nested byte strings (sampler states).
struct Probe {
  std::vector<Leaf>* leaves = nullptr;
  const util::ByteReader* body = nullptr;
};
inline thread_local Probe probe;
}  // namespace detail

/// Decoding position: the reader plus the section and field being read,
/// which every refusal names.
class In {
 public:
  explicit In(util::ByteReader& r) : r_(&r) {}

  In at(const char* field) const {
    In c = *this;
    c.field_ = field;
    return c;
  }
  In enter(const char* section) const {
    In c = at("");
    c.section_ = section;
    return c;
  }
  [[noreturn]] void fail(const std::string& reason) const;
  /// The reader, once `n` bytes are known to be left (trace() records the
  /// value about to be read).
  util::ByteReader& need(std::size_t n, Kind kind, std::uint64_t max = 0);
  /// A u64 count of elements of at least `min_bytes` each, refused when it
  /// exceeds what the bytes left can hold (before anything is allocated).
  std::size_t count(std::size_t min_bytes);
  util::ByteReader& reader() const noexcept { return *r_; }

 private:
  util::ByteReader* r_;
  const char* section_ = "";
  const char* field_ = "";
};

/// Refuses a double the rule does not accept.
void check(const In& in, double v, Rule rule);
/// "must be 3 (got 4)" for Expect mismatches.
std::string mismatch(std::string_view want, std::string_view got);
std::string mismatch(std::uint64_t want, std::uint64_t got);

template <class V>
concept IsSection = requires { V::fields().fields; };
/// A counter family (core/metrics.hpp): one u64 per persisted CounterField.
template <class V>
concept IsCounters = requires { V::fields()[0].persisted; };
template <class V>
concept IsMap = requires { typename V::mapped_type; };
template <class V>
concept IsSet = requires { typename V::key_type; } && !IsMap<V>;
template <class V>
concept IsArray = requires { std::tuple_size<V>::value; };
template <class V>
concept IsSeq = requires(V& v) { v.push_back(v.front()); };
template <class V>
concept IsOptional = requires(V& v) { v.has_value(); };
template <class V>
concept IsPtr = requires(V& v) { *v; };

template <class V>
void put(util::ByteWriter& w, const V& v, Rule rule = {});
template <class V>
void get(In& in, V& v, Rule rule = {});

/// Bytes a default value encodes to: the fewest any value of a
/// count-bounded element type takes (its sequences are empty).
template <class V>
std::size_t blank_bytes() {
  util::ByteWriter w;
  put(w, V{});
  return w.size();
}

template <class V>
void put(util::ByteWriter& w, const V& v, Rule rule) {
  if constexpr (std::is_same_v<V, bool>) {
    w.u8(v ? 1 : 0);
  } else if constexpr (std::is_same_v<V, char> || std::is_enum_v<V>) {
    w.u8(static_cast<std::uint8_t>(v));
  } else if constexpr (std::is_same_v<V, std::uint32_t>) {
    w.u32(v);
  } else if constexpr (std::is_same_v<V, std::uint64_t>) {
    w.u64(v);
  } else if constexpr (std::is_same_v<V, double>) {
    w.f64(v);
  } else if constexpr (std::is_convertible_v<V, std::string_view>) {
    w.str(v);
  } else if constexpr (std::is_same_v<V, ResourceVector>) {
    for (ResourceKind k : kAllResources) w.f64(v[k]);
  } else if constexpr (std::is_same_v<V, util::Rng>) {
    const util::Rng::State s = v.state();
    for (std::uint64_t word : s.words) w.u64(word);
    w.f64(s.cached_normal);
    w.u8(s.has_cached_normal ? 1 : 0);
  } else if constexpr (IsSection<V>) {
    constexpr auto s = V::fields();
    std::apply([&](const auto&... f) { (save_field(w, v, f), ...); },
               s.fields);
  } else if constexpr (IsCounters<V>) {
    for (const auto& f : V::fields()) {
      if (f.persisted) w.u64(v.*f.member);
    }
  } else if constexpr (IsMap<V>) {
    w.u64(v.size());
    for (const auto& [key, e] : v) {
      put(w, key);
      put(w, e, rule.element());
    }
  } else if constexpr (IsArray<V> || IsSet<V> || IsSeq<V>) {
    if (!IsArray<V> && !rule.has(kFixedSize)) w.u64(v.size());
    for (const auto& e : v) put(w, e, rule.element());
  } else if constexpr (IsOptional<V>) {
    w.u8(v ? 1 : 0);
    if (v) put(w, *v, rule);
  } else if constexpr (IsPtr<V>) {
    put(w, *v, rule);
  } else if constexpr (requires { snapshot_save(w, v); }) {
    snapshot_save(w, v);
  } else if constexpr (requires { v.save(w); }) {
    v.save(w);
  } else {
    v.save_state(w);
  }
}

template <class V>
void get(In& in, V& v, Rule rule) {
  if constexpr (std::is_same_v<V, bool> || std::is_same_v<V, char>) {
    const std::uint8_t b = in.need(1, Kind::Bool).u8();
    if (b > 1) in.fail("byte " + std::to_string(b) + " is not a bool (0 or 1)");
    v = b == 1;
  } else if constexpr (std::is_enum_v<V>) {
    const std::uint8_t b = in.need(1, Kind::Enum, rule.max).u8();
    if (b > rule.max) {
      in.fail("value " + std::to_string(b) + " is above " +
              std::to_string(rule.max));
    }
    v = static_cast<V>(b);
  } else if constexpr (std::is_same_v<V, std::uint32_t>) {
    v = in.need(4, Kind::U32).u32();
  } else if constexpr (std::is_same_v<V, std::uint64_t>) {
    v = in.need(8, Kind::U64).u64();
  } else if constexpr (std::is_same_v<V, double>) {
    v = in.need(8, Kind::F64).f64();
    check(in, v, rule);
  } else if constexpr (std::is_same_v<V, std::string>) {
    util::ByteReader peek = in.need(4, Kind::Length);
    if (peek.u32() > peek.remaining()) in.fail("length exceeds the bytes left");
    v = in.reader().str();
  } else if constexpr (std::is_same_v<V, ResourceVector>) {
    for (ResourceKind k : kAllResources) get(in, v[k], rule);
  } else if constexpr (std::is_same_v<V, util::Rng>) {
    util::Rng::State s;
    In words = in.at("words");
    In cached = in.at("cached_normal");
    In has = in.at("has_cached_normal");
    for (std::uint64_t& word : s.words) get(words, word);
    get(cached, s.cached_normal, kFinite);
    get(has, s.has_cached_normal);
    if (s.words == std::array<std::uint64_t, 4>{}) {
      words.fail("must not all be zero (xoshiro would emit zeros forever)");
    }
    v.set_state(s);
  } else if constexpr (IsSection<V>) {
    constexpr auto s = V::fields();
    const In here = in.enter(s.name);
    std::apply([&](const auto&... f) { (load_field(here, v, f), ...); },
               s.fields);
    if constexpr (!std::is_null_pointer_v<decltype(s.after)>) (v.*s.after)();
  } else if constexpr (IsCounters<V>) {
    for (const auto& f : V::fields()) {
      if (f.persisted) v.*f.member = in.at(f.name).need(8, Kind::U64).u64();
    }
  } else if constexpr (IsMap<V>) {
    using K = typename V::key_type;
    using E = typename V::mapped_type;
    const std::size_t n = in.count(blank_bytes<K>() + blank_bytes<E>());
    V out;
    for (std::size_t i = 0; i < n; ++i) {
      K key{};
      E e{};
      get(in, key);
      get(in, e, rule.element());
      if (!out.empty() && !(out.rbegin()->first < key)) {
        in.fail("keys must ascend strictly");
      }
      out.emplace_hint(out.end(), key, std::move(e));
    }
    v = std::move(out);
  } else if constexpr (IsArray<V>) {
    for (auto& e : v) get(in, e, rule.element());
  } else if constexpr (IsSet<V>) {
    std::vector<typename V::value_type> elems;
    get(in, elems, rule);
    for (std::size_t i = 1; i < elems.size(); ++i) {
      if (!(elems[i - 1] < elems[i])) in.fail("must ascend strictly");
    }
    v = V(elems.begin(), elems.end());
  } else if constexpr (IsSeq<V>) {
    using E = typename V::value_type;
    if (rule.has(kSameSize)) {
      const std::uint64_t n = in.need(8, Kind::Count).u64();
      if (n != v.size()) in.fail(mismatch(v.size(), n));
    } else if (!rule.has(kFixedSize)) {
      const std::size_t n = in.count(blank_bytes<E>());
      if constexpr (std::is_copy_constructible_v<E>) {
        // New elements start as copies of the first one held before the
        // load, so members written without a count keep their shape.
        const E blank = v.empty() ? E{} : v.front();
        v.assign(n, blank);
      } else {
        v.resize(n);
      }
    }
    for (auto& e : v) get(in, e, rule.element());
    if constexpr (std::is_same_v<E, double>) {
      for (std::size_t i = 1; rule.has(kAscending) && i < v.size(); ++i) {
        if (v[i] < v[i - 1]) in.fail("must not descend");
      }
    }
  } else if constexpr (IsOptional<V>) {
    bool present = false;
    get(in, present);
    if (present != v.has_value()) {
      in.fail("presence differs from this instance's construction");
    }
    if (v) get(in, *v, rule);
  } else if constexpr (IsPtr<V>) {
    get(in, *v, rule);
  } else if constexpr (requires { snapshot_load(in.reader(), v); }) {
    snapshot_load(in.reader(), v);
  } else if constexpr (requires { v.load(in.reader()); }) {
    v.load(in.reader());
  } else {
    v.load_state(in.reader());
  }
}

template <class T, class O, class M>
void save_field(util::ByteWriter& w, const O& obj, const Field<T, M>& f) {
  put(w, obj.*f.member, f.rule);
}
template <class O, class Fn>
void save_field(util::ByteWriter& w, const O& obj, const Expect<Fn>& f) {
  put(w, f.fn(obj));
}
template <class O, class G, class S>
void save_field(util::ByteWriter& w, const O& obj, const Via<G, S>& f) {
  put(w, f.get(obj), f.rule);
}

/// A decoded value's type: string views decode into strings.
template <class V>
using Decoded = std::conditional_t<std::is_convertible_v<V, std::string_view>,
                                   std::string, std::decay_t<V>>;

template <class T, class O, class M>
void load_field(const In& in, O& obj, const Field<T, M>& f) {
  In here = in.at(f.name);
  get(here, obj.*f.member, f.rule);
}
template <class O, class Fn>
void load_field(const In& in, O& obj, const Expect<Fn>& f) {
  In here = in.at(f.name);
  Decoded<decltype(f.fn(obj))> got{};
  get(here, got);
  const auto want = f.fn(obj);
  if (got != want) here.fail(mismatch(want, got));
}
template <class O, class G, class S>
void load_field(const In& in, O& obj, const Via<G, S>& f) {
  In here = in.at(f.name);
  Decoded<decltype(f.get(obj))> v{};
  get(here, v, f.rule);
  f.set(obj, std::move(v));
}

/// Writes `obj` through its field list.
template <class T>
void save(util::ByteWriter& w, const T& obj) {
  put(w, obj);
}

/// Replaces `obj`'s persisted state with what `r` holds, or throws
/// SnapshotError.
template <class T>
void load(util::ByteReader& r, T& obj) {
  In in(r);
  get(in, obj);
}

template <class T>
std::string to_bytes(const T& obj) {
  util::ByteWriter w;
  save(w, obj);
  return w.take();
}

/// load() over a whole byte string; bytes left over are refused.
template <class T>
void from_bytes(std::string_view bytes, T& obj) {
  util::ByteReader r(bytes);
  load(r, obj);
  if (!r.done()) {
    throw SnapshotError(T::fields().name, "",
                        std::to_string(r.remaining()) + " trailing bytes");
  }
}

/// Runs `load` (any callable taking a ByteReader&) over `body` and returns
/// every value it read, in order, with its section, field, offset and kind:
/// the field-level map of a body that tests mutate and diagnostics print.
/// A refusal propagates.
template <class LoadFn>
std::vector<Leaf> trace(std::string_view body, LoadFn&& load) {
  std::vector<Leaf> leaves;
  struct Reset {
    ~Reset() { detail::probe = {}; }
  } reset;
  detail::probe = {&leaves, nullptr};
  util::ByteReader r(body);
  load(r);
  return leaves;
}

}  // namespace snapshot
}  // namespace tora::core
