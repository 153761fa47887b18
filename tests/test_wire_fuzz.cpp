// Structure-aware fuzzing of the two byte formats the manager reads from
// outside its own memory, in the style of test_snapshot_fuzz:
//
//  - WireFuzz: a CRC-32C-valid line of each message type and session
//    control frame is split into its `key=value` fields; one field at a
//    time (or the verb) is set to an edge value and the line is re-sealed,
//    so the edit reaches the field parsers instead of dying at the
//    checksum. Every decode either refuses or returns a value that obeys
//    the codec's input rules and re-encodes to itself. The lines a manager
//    consumes (ready, result, evict, heartbeat) also go through one: a
//    refused line only counts in malformed_lines and leaves snapshot_body()
//    equal to a twin's that consumed a known-bad line instead.
//  - JournalFuzz: a CRC-32C-valid journal with one frame of each record
//    type gets one field of one frame set to an edge value: its length
//    (zero, one off, just past the buffer), its type byte, or a payload
//    field (integer maxima, a string length past the payload, an input line
//    the codec refuses); type and payload edits are re-sealed. Recovery
//    either rebuilds a manager or refuses with a typed StorageError; an
//    input line the codec refuses replays into malformed_lines alone.
//
// The seed is gtest's random seed: 0 under a plain run, so tier-1 stays
// deterministic; `--gtest_shuffle --gtest_repeat=N` draws a fresh seed per
// repeat (printed by gtest, replayed with --gtest_random_seed).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/recovery/journal.hpp"
#include "core/recovery/recovery_log.hpp"
#include "core/recovery/storage.hpp"
#include "core/registry.hpp"
#include "oracles/v1_formats.hpp"
#include "proto/channel.hpp"
#include "proto/checksum.hpp"
#include "proto/manager.hpp"
#include "proto/message.hpp"
#include "proto/net/session.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace {

using tora::core::ResourceVector;
using tora::core::TaskSpec;
using tora::core::recovery::JournalWriter;
using tora::core::recovery::MemStorage;
using tora::core::recovery::RecordType;
using tora::core::recovery::RecoveryLog;
using tora::core::recovery::StorageError;
using tora::proto::Message;
using tora::proto::MsgType;
using tora::proto::ProtocolManager;
namespace net = tora::proto::net;

std::uint64_t seed() {
  return static_cast<std::uint64_t>(
      ::testing::UnitTest::GetInstance()->random_seed());
}

std::vector<TaskSpec> workload(std::size_t n) {
  std::vector<TaskSpec> tasks(n);
  for (std::size_t i = 0; i < n; ++i) {
    tasks[i].id = i;
    tasks[i].category = i % 3 == 0 ? "wide" : "narrow";
    tasks[i].demand = i % 3 == 0 ? ResourceVector{2.0, 2500.0, 300.0}
                                 : ResourceVector{1.0, 600.0, 60.0};
    tasks[i].duration_s = 4.0 + static_cast<double>(i % 5);
    tasks[i].peak_fraction = 0.6;
  }
  return tasks;
}

/// A manager over its own links and allocator.
struct Harness {
  explicit Harness(const std::vector<TaskSpec>& tasks)
      : allocator(tora::core::make_allocator(tora::core::kMaxSeen, 7)) {
    for (int i = 0; i < 2; ++i) {
      links.push_back(std::make_shared<tora::proto::DuplexLink>());
    }
    manager = std::make_unique<ProtocolManager>(tasks, allocator, links);
  }

  tora::core::TaskAllocator allocator;
  std::vector<tora::proto::DuplexLinkPtr> links;
  std::unique_ptr<ProtocolManager> manager;
};

// ------------------------------------------------------------------- wire

/// The values each field is set to in turn: integers past 64 and 32 bits,
/// signed and special doubles, hex, empty text and broken escapes.
const std::vector<std::string>& edge_values() {
  static const std::vector<std::string> kEdges = {
      "18446744073709551616", "18446744073709551615", "4294967296",
      "-0",   "-1",   "1e308", "1e309", "4.9e-324", "nan",
      "NaN",  "-nan", "inf",   "0x10",  "",         "%",
      "%4",   "%zz",  "%00",   "16"};
  return kEdges;
}

const std::vector<std::string>& edge_verbs() {
  static const std::vector<std::string> kVerbs = {
      "dispatchx", "Ready", "tora!helo", "tora!", "crc=", ""};
  return kVerbs;
}

/// A sealed line as its verb and `key=value` fields, the crc token dropped.
struct SplitLine {
  std::string verb;
  std::vector<std::pair<std::string, std::string>> fields;

  static SplitLine of(std::string_view line) {
    SplitLine out;
    std::size_t pos = line.find(' ');
    out.verb = std::string(line.substr(0, pos));
    while (pos != std::string_view::npos) {
      const std::size_t end = line.find(' ', pos + 1);
      const std::string_view token = line.substr(
          pos + 1, end == std::string_view::npos ? end : end - pos - 1);
      const std::size_t eq = token.find('=');
      if (token.substr(0, eq) != "crc") {
        out.fields.emplace_back(std::string(token.substr(0, eq)),
                                std::string(token.substr(eq + 1)));
      }
      pos = end;
    }
    return out;
  }

  /// The fields behind `verb` under a fresh CRC-32C seal.
  std::string sealed() const {
    std::string line;
    tora::proto::open_line(line, verb);
    for (const auto& [key, value] : fields) line += " " + key + "=" + value;
    tora::proto::seal_line(line, verb.size());
    return line;
  }
};

/// Every edit of `base`: each field set to each edge value, then each edge
/// verb, re-sealed.
std::vector<std::string> edits_of(const std::string& base) {
  const SplitLine split = SplitLine::of(base);
  EXPECT_EQ(split.sealed(), base);
  std::vector<std::string> out;
  for (std::size_t f = 0; f < split.fields.size(); ++f) {
    for (const std::string& v : edge_values()) {
      SplitLine edit = split;
      edit.fields[f].second = v;
      out.push_back(edit.sealed());
    }
  }
  for (const std::string& verb : edge_verbs()) {
    SplitLine edit = split;
    edit.verb = verb;
    out.push_back(edit.sealed());
  }
  return out;
}

/// One random message of each type, with ids the harness's manager knows.
std::vector<Message> base_messages(tora::util::Rng& rng) {
  std::vector<Message> out;
  for (MsgType t : {MsgType::WorkerReady, MsgType::TaskDispatch,
                    MsgType::TaskResult, MsgType::Evict, MsgType::Shutdown,
                    MsgType::Heartbeat}) {
    Message m;
    m.type = t;
    m.worker_id = rng.uniform_int(0, 1);
    m.task_id = rng.uniform_int(0, 5);
    m.attempt = rng.uniform_int(0, 3);
    m.category = rng.bernoulli(0.5) ? "narrow" : "odd cat=%";
    m.resources = ResourceVector{rng.uniform(0.0, 16.0),
                                 static_cast<double>(rng.uniform_int(0, 65536)),
                                 rng.uniform(0.0, 1e5), rng.uniform01()};
    m.runtime_s = rng.uniform(0.0, 100.0);
    m.outcome = rng.bernoulli(0.5) ? tora::proto::Outcome::Success
                                   : tora::proto::Outcome::ResourceExhausted;
    m.exceeded_mask = static_cast<unsigned>(rng.uniform_int(0, 15));
    out.push_back(m);
  }
  return out;
}

/// A decoded message obeys the input rules and re-encodes to a line that
/// decodes to it again.
void expect_well_formed(const Message& m, const std::string& line) {
  const auto amount_ok = [](double v) {
    return std::isfinite(v) && !(v < 0.0);
  };
  for (double v : {m.resources.cores(), m.resources.memory_mb(),
                   m.resources.disk_mb(), m.resources.time_s(), m.runtime_s}) {
    EXPECT_TRUE(amount_ok(v)) << line;
  }
  EXPECT_LE(m.exceeded_mask, 0xFu) << line;
  const std::string again = tora::proto::encode(m);
  const auto back = tora::proto::decode(again);
  ASSERT_TRUE(back) << line << " re-encoded as " << again;
  EXPECT_EQ(*back, m) << line;
  EXPECT_EQ(tora::proto::encode(*back), again) << line;
}

TEST(WireFuzz, MessageEdgeValuesDecodeWellFormedOrAreRefused) {
  tora::util::Rng rng(seed() * 2 + 1);
  std::size_t refused = 0, accepted = 0;
  for (const Message& base : base_messages(rng)) {
    for (const std::string& line : edits_of(tora::proto::encode(base))) {
      const auto m = tora::proto::decode(line);
      if (!m) {
        ++refused;
        continue;
      }
      ++accepted;
      expect_well_formed(*m, line);
    }
  }
  EXPECT_GT(refused, 400u);
  EXPECT_GT(accepted, 50u);
}

TEST(WireFuzz, ControlFrameEdgeValuesDecodeInRangeOrAreRefused) {
  tora::util::Rng rng(seed() * 2 + 2);
  const net::HelloFrame hello{net::kTransportVersion, rng.uniform_int(0, 9),
                              rng(), rng.uniform_int(0, 99)};
  const net::WelcomeFrame welcome{net::kTransportVersion, rng() | 1,
                                  rng.uniform_int(0, 99), rng.bernoulli(0.5)};
  std::size_t accepted = 0;
  for (const std::string& line : edits_of(net::encode_hello(hello))) {
    if (const auto h = net::decode_hello(line)) {
      ++accepted;
      EXPECT_EQ(net::decode_hello(net::encode_hello(*h))->token, h->token);
    }
    EXPECT_FALSE(net::decode_welcome(line) || net::decode_ack(line)) << line;
  }
  for (const std::string& line : edits_of(net::encode_welcome(welcome))) {
    if (const auto w = net::decode_welcome(line)) {
      ++accepted;
      EXPECT_EQ(net::decode_welcome(net::encode_welcome(*w))->token,
                w->token);
    }
  }
  for (const std::string& line :
       edits_of(net::encode_ack({rng.uniform_int(0, 99)}))) {
    if (net::decode_ack(line)) ++accepted;
  }
  // Only the canonical u64 edges ("18446744073709551615", "4294967296",
  // "16") parse, and neither 2^64 - 1 nor 2^32 is a version.
  EXPECT_GT(accepted, 0u);
  for (const char* v : {"18446744073709551615", "4294967296"}) {
    SplitLine edit = SplitLine::of(net::encode_hello(hello));
    edit.fields[0].second = v;
    EXPECT_FALSE(net::decode_hello(edit.sealed())) << edit.sealed();
  }
}

// A refused line's only effect on a manager is the malformed_lines count:
// its body stays equal to a twin's that consumed a known-bad line instead.
// An accepted line goes to both.
TEST(WireFuzz, ManagerConsumesEdgeLinesOrOnlyCountsThem) {
  tora::util::Rng rng(seed() * 2 + 3);
  const auto tasks = workload(6);
  Harness a(tasks), b(tasks);
  a.manager->start();
  b.manager->start();
  std::size_t refused = 0;
  for (const Message& base : base_messages(rng)) {
    if (base.type == MsgType::TaskDispatch || base.type == MsgType::Shutdown) {
      continue;  // the manager sends these; agents consume them
    }
    for (const std::string& line : edits_of(tora::proto::encode(base))) {
      const bool decodes = tora::proto::decode(line).has_value();
      const std::size_t link = base.worker_id;
      const std::size_t before = a.manager->chaos().malformed_lines;
      a.links[link]->to_manager.send(line);
      b.links[link]->to_manager.send(decodes ? line : "garbage");
      a.manager->pump();
      b.manager->pump();
      if (!decodes) {
        ++refused;
        EXPECT_EQ(a.manager->chaos().malformed_lines, before + 1) << line;
      }
      ASSERT_EQ(a.manager->snapshot_body(), b.manager->snapshot_body())
          << line;
    }
  }
  EXPECT_GT(refused, 200u);
}

// A ready or heartbeat line whose capacity the registry cannot account for
// (a dimension above the exact totals' 2^40, the bound the simulator puts
// on every worker) is refused like a line that does not decode: counted in
// malformed_lines, with the body otherwise equal to a twin's that read a
// known-bad line. It neither registers nor updates the worker. 2^40 itself
// is accepted.
TEST(WireFuzz, ManagerRefusesCapacitiesItCannotAccount) {
  const auto tasks = workload(6);
  Harness a(tasks), b(tasks);
  a.manager->start();
  b.manager->start();
  const auto announce = [](MsgType type, ResourceVector capacity) {
    Message m;
    m.type = type;
    m.worker_id = 0;
    m.resources = capacity;
    return tora::proto::encode(m);
  };
  const ResourceVector fine{16.0, 64000.0, 64000.0};
  ResourceVector huge = fine;
  huge[tora::core::ResourceKind::DiskMB] = 1e308;
  const auto refused = [&](const std::string& line) {
    const std::size_t before = a.manager->chaos().malformed_lines;
    a.links[0]->to_manager.send(line);
    b.links[0]->to_manager.send("garbage");
    a.manager->pump();
    b.manager->pump();
    EXPECT_EQ(a.manager->chaos().malformed_lines, before + 1) << line;
    EXPECT_EQ(a.manager->snapshot_body(), b.manager->snapshot_body()) << line;
  };
  refused(announce(MsgType::WorkerReady, huge));
  refused(announce(MsgType::Heartbeat, huge));
  EXPECT_EQ(a.manager->workers_known(), 0u);
  // Registered with a capacity it can hold, the worker keeps it.
  for (Harness* h : {&a, &b}) {
    h->links[0]->to_manager.send(announce(MsgType::WorkerReady, fine));
    h->manager->pump();
  }
  ASSERT_EQ(a.manager->workers_known(), 1u);
  ResourceVector over = fine;
  over[tora::core::ResourceKind::Cores] = 0x1p40 * (1.0 + 0x1p-52);
  refused(announce(MsgType::WorkerReady, over));
  refused(announce(MsgType::Heartbeat, huge));
  // The bound itself is accepted on the second link.
  ResourceVector bound = fine;
  bound[tora::core::ResourceKind::MemoryMB] = 0x1p40;
  Message ready;
  ready.type = MsgType::WorkerReady;
  ready.worker_id = 1;
  ready.resources = bound;
  a.links[1]->to_manager.send(tora::proto::encode(ready));
  a.manager->pump();
  EXPECT_EQ(a.manager->workers_known(), 2u);
}

// ---------------------------------------------------------------- journal

/// A payload as the manager writes it.
struct Payload {
  tora::util::ByteWriter w;
  Payload& u8(std::uint8_t v) { return w.u8(v), *this; }
  Payload& u32(std::uint32_t v) { return w.u32(v), *this; }
  Payload& u64(std::uint64_t v) { return w.u64(v), *this; }
  Payload& f64(double v) { return w.f64(v), *this; }
  Payload& str(std::string_view v) { return w.str(v), *this; }
};

/// A fixed-width payload field a fuzz edit overwrites: its offset in the
/// payload, its width and whether it is a string's length prefix.
struct PayloadField {
  std::size_t offset;
  std::size_t width;
  bool length = false;
};

struct JournalEntry {
  RecordType type;
  std::string payload;
  std::vector<PayloadField> fields;
};

/// One record of every type, in the order a manager writes them; the
/// input record carries `input` from link 0.
std::vector<JournalEntry> journal_entries(const std::string& input) {
  const auto bytes = [](Payload& p) { return p.w.bytes(); };
  Payload epoch, interned, tick1, in, bp, submitted, alloc, dispatched, term,
      completed, failed, requeued, evicted, fatal, tick2;
  epoch.u64(0).u64(0);
  interned.u32(0).str("narrow");
  tick1.u64(1);
  in.u32(0).str(input);
  bp.u32(1).u32(1);
  submitted.u64(1);
  alloc.u64(1).f64(1.0).f64(600.0).f64(60.0).f64(0.0).u8(0);
  dispatched.u64(1).u64(0).u64(1);
  term.u64(1);
  completed.u64(1).f64(0.6).f64(360.0).f64(36.0).f64(0.0).f64(4.0);
  failed.u64(2).f64(3.0).u32(2).u8(1);
  requeued.u64(2);
  evicted.u64(3).f64(0.5);
  fatal.u64(4);
  tick2.u64(2);
  const PayloadField u64_at0{0, 8};
  return {
      {RecordType::Epoch, bytes(epoch), {{0, 8}, {8, 8}}},
      {RecordType::CategoryInterned, bytes(interned), {{0, 4}, {4, 4, true}}},
      {RecordType::Started, "", {}},
      {RecordType::Tick, bytes(tick1), {u64_at0}},
      {RecordType::Input, bytes(in), {{0, 4}, {4, 4, true}}},
      {RecordType::LivenessDone, "", {}},
      {RecordType::Backpressure, bytes(bp), {{0, 4}, {4, 4}}},
      {RecordType::TaskSubmitted, bytes(submitted), {u64_at0}},
      {RecordType::AllocationCommitted, bytes(alloc), {u64_at0, {8, 8}}},
      {RecordType::TaskDispatched, bytes(dispatched), {u64_at0, {8, 8}}},
      {RecordType::DispatchDone, "", {}},
      {RecordType::TermBump, bytes(term), {u64_at0}},
      {RecordType::TaskCompleted, bytes(completed), {u64_at0}},
      {RecordType::TaskAttemptFailed, bytes(failed), {u64_at0, {16, 4}}},
      {RecordType::TaskRequeued, bytes(requeued), {u64_at0}},
      {RecordType::TaskEvicted, bytes(evicted), {u64_at0, {8, 8}}},
      {RecordType::TaskFatal, bytes(fatal), {u64_at0}},
      {RecordType::Tick, bytes(tick2), {u64_at0}},
  };
}

/// The framed journal, and where each frame starts.
struct Journal {
  std::string bytes;
  std::vector<std::size_t> starts;
};

Journal frame(const std::vector<JournalEntry>& entries) {
  MemStorage storage;
  Journal out;
  {
    JournalWriter w(storage.open_append("journal-0"));
    for (const JournalEntry& e : entries) {
      out.starts.push_back(w.bytes_written());
      w.append(e.type, e.payload);
    }
    w.sync();
  }
  out.bytes = *storage.read_file("journal-0");
  return out;
}

void put_le(std::string& bytes, std::size_t at, std::uint64_t v,
            std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) {
    bytes[at + i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
  }
}

/// Re-seals the frame at `at` after an edit of its type or payload.
void reseal(std::string& bytes, std::size_t at) {
  std::uint32_t len = 0;
  for (int i = 3; i >= 0; --i) {
    len = len << 8 | static_cast<unsigned char>(bytes[at + i]);
  }
  const std::uint32_t crc =
      tora::util::crc32c(std::string_view(bytes).substr(at + 4, 1 + len));
  put_le(bytes, at + 5 + len, crc, 4);
}

/// What recovering a journal-0 of `bytes` did.
struct Recovery {
  bool refused = false;
  std::string body;  ///< the rebuilt manager's snapshot_body()
  std::size_t malformed = 0;
  std::size_t torn = 0;  ///< torn records truncated
};

Recovery recover(const std::string& bytes, const std::vector<TaskSpec>& tasks,
                 const std::string& what) {
  MemStorage storage;
  storage.write_file_durable("journal-0", bytes);
  tora::core::RecoveryCounters counters;
  Recovery out;
  try {
    RecoveryLog log(storage, &counters);
    const RecoveryLog::ScanResult scan = log.scan();
    Harness h(tasks);
    h.manager->recover(scan);
    out.body = h.manager->snapshot_body();
    out.malformed = h.manager->chaos().malformed_lines;
  } catch (const StorageError&) {
    out.refused = true;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "untyped refusal " << e.what() << " (" << what << ")";
    out.refused = true;
  }
  out.torn = counters.torn_records_truncated;
  return out;
}

TEST(JournalFuzz, FrameEdgeValuesRecoverOrAreRefusedTyped) {
  tora::util::Rng rng(seed() * 2 + 4);
  const auto tasks = workload(6);
  Message ready;
  ready.worker_id = 0;
  ready.resources = ResourceVector{16.0, 64000.0, 64000.0};
  const std::vector<JournalEntry> entries =
      journal_entries(tora::proto::encode(ready));
  const Journal base = frame(entries);
  ASSERT_FALSE(recover(base.bytes, tasks, "the unedited journal").refused);

  std::size_t tried = 0, refused = 0;
  const auto check = [&](const std::string& bytes, const std::string& what,
                         std::optional<bool> want_refused) {
    ++tried;
    const Recovery r = recover(bytes, tasks, what);
    refused += r.refused;
    if (want_refused) EXPECT_EQ(r.refused, *want_refused) << what;
  };
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const std::size_t at = base.starts[i];
    const std::size_t len = entries[i].payload.size();
    const bool last = i + 1 == entries.size();
    const std::string name = tora::core::recovery::to_string(entries[i].type);
    // The length field: a frame no longer ends where its CRC is, so the
    // scan cuts there; intact frames after the cut make it mid-file damage.
    const std::size_t past_buffer = base.bytes.size() - at - 9 + 1;
    for (const std::uint64_t v :
         {std::uint64_t{0}, std::uint64_t{len + 1}, std::uint64_t{past_buffer},
          std::uint64_t{0xFFFFFFFFu}}) {
      if (v == len) continue;  // no edit
      std::string bad = base.bytes;
      put_le(bad, at, v, 4);
      check(bad, name + " length " + std::to_string(v), !last);
    }
    // The type byte, re-sealed: an intact frame of no known type is refused
    // wherever it sits.
    for (const std::uint8_t t : {0x00, 0x09, 0x0F, 0x19, 0x7F, 0xFF}) {
      std::string bad = base.bytes;
      bad[at + 4] = static_cast<char>(t);
      reseal(bad, at);
      check(bad, name + " type " + std::to_string(t), true);
    }
    // One payload field, re-sealed: a value replay cannot apply is a typed
    // refusal; the audit records and TermBump take any value.
    for (const PayloadField& f : entries[i].fields) {
      const std::uint64_t max = f.width == 8 ? ~std::uint64_t{0} : 0xFFFFFFFFu;
      std::vector<std::uint64_t> values = {max, 0};
      if (f.length) values.push_back(len - f.offset - f.width + 1);
      const std::uint64_t v = values[rng.uniform_int(0, values.size() - 1)];
      std::string bad = base.bytes;
      put_le(bad, at + 5 + f.offset, v, f.width);
      reseal(bad, at);
      check(bad, name + " field @" + std::to_string(f.offset) + " = " +
                     std::to_string(v),
            std::nullopt);
    }
  }
  EXPECT_GT(tried, 150u);
  EXPECT_GT(refused, 90u);
}

// The input record's line is what the manager consumed: one the codec
// refuses replays into malformed_lines and nothing else, like a garbage
// line does.
TEST(JournalFuzz, RefusedInputLinesReplayIntoTheMalformedCountOnly) {
  tora::util::Rng rng(seed() * 2 + 5);
  const auto tasks = workload(6);
  const Recovery garbage =
      recover(frame(journal_entries("garbage")).bytes, tasks, "garbage");
  ASSERT_FALSE(garbage.refused);
  ASSERT_EQ(garbage.malformed, 1u);

  Message ready;
  ready.worker_id = 0;
  ready.resources = ResourceVector{rng.uniform(1.0, 16.0), 64000.0, 64000.0};
  const std::string valid = tora::proto::encode(ready);
  std::vector<std::string> lines = {
      tora::oracles::v1::sealed_line(
          "ready", valid.substr(valid.find(' ', valid.find(' ') + 1))),
      "", valid.substr(0, valid.size() - 1)};
  for (const std::string& edit : edits_of(valid)) {
    if (!tora::proto::decode(edit)) lines.push_back(edit);
  }
  for (const std::string& line : lines) {
    ASSERT_FALSE(tora::proto::decode(line)) << line;
    const Recovery r = recover(frame(journal_entries(line)).bytes, tasks, line);
    ASSERT_FALSE(r.refused) << line;
    EXPECT_EQ(r.malformed, 1u) << line;
    EXPECT_EQ(r.body, garbage.body) << line;
  }
}

}  // namespace
