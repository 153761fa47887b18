// Unit coverage for the socket transport's building blocks: the
// EINTR/EAGAIN-safe io helpers (shared with recovery::FileStorage), the
// newline frame reassembler, the partial-write send buffer, the session
// control-frame codec, the bounded session send queue, and the jittered
// reconnect backoff.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "proto/net/frame.hpp"
#include "proto/checksum.hpp"
#include "proto/net/session.hpp"
#include "proto/net/socket.hpp"
#include "util/io.hpp"

namespace {

using tora::core::TransportCounters;
using tora::proto::net::AckFrame;
using tora::proto::net::decode_ack;
using tora::proto::net::decode_hello;
using tora::proto::net::decode_welcome;
using tora::proto::net::encode_ack;
using tora::proto::net::encode_hello;
using tora::proto::net::encode_welcome;
using tora::proto::net::FrameReader;
using tora::proto::net::HelloFrame;
using tora::proto::net::kTransportVersion;
using tora::proto::net::is_control_frame;
using tora::proto::net::ReconnectBackoff;
using tora::proto::net::SendBuffer;
using tora::proto::net::SessionConfig;
using tora::proto::net::SessionSendQueue;
using tora::proto::net::WelcomeFrame;
namespace io = tora::util::io;

// ----------------------------------------------------------------- util/io

TEST(UtilIo, WriteFullThenReadFullRoundTripsThroughAPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string payload(8000, 'x');
  const auto w = io::write_full(fds[1], payload);
  EXPECT_EQ(w.status, io::IoStatus::Ok);
  EXPECT_EQ(w.bytes, payload.size());
  std::string out;
  const auto r = io::read_full(fds[0], out, payload.size());
  EXPECT_EQ(r.status, io::IoStatus::Ok);
  EXPECT_EQ(out, payload);
  io::close_fd(fds[0]);
  io::close_fd(fds[1]);
}

TEST(UtilIo, ReadFullReportsEofWithPartialCount) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(io::write_full(fds[1], "abc").status, io::IoStatus::Ok);
  io::close_fd(fds[1]);
  std::string out;
  const auto r = io::read_full(fds[0], out, 10);
  EXPECT_EQ(r.status, io::IoStatus::Eof);
  EXPECT_EQ(r.bytes, 3u);
  EXPECT_EQ(out, "abc");
  io::close_fd(fds[0]);
}

TEST(UtilIo, ReadToEndDrainsEverything) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(io::write_full(fds[1], "hello world").status, io::IoStatus::Ok);
  io::close_fd(fds[1]);
  std::string out;
  const auto r = io::read_to_end(fds[0], out);
  EXPECT_EQ(r.status, io::IoStatus::Ok);
  EXPECT_EQ(out, "hello world");
  io::close_fd(fds[0]);
}

TEST(UtilIo, RecvSomeMapsEmptyNonblockingSocketToWouldBlock) {
  int fds[2];
  ASSERT_EQ(::pipe2(fds, O_NONBLOCK), 0);
  std::string out;
  const auto r = io::recv_some(fds[0], out, 64);
  // recv() on a pipe is ENOTSOCK; read path via socketpair below. Here we
  // only assert the helper never fabricates data.
  EXPECT_TRUE(out.empty());
  (void)r;
  io::close_fd(fds[0]);
  io::close_fd(fds[1]);
}

TEST(UtilIo, ErrorStatusPreservesErrno) {
  const auto r = io::write_full(-1, "x");
  EXPECT_EQ(r.status, io::IoStatus::Error);
  EXPECT_EQ(errno, EBADF);
}

TEST(UtilIo, OpenRetryAndFsyncRetryWorkOnARealFile) {
  const std::string path = ::testing::TempDir() + "tora_io_test.bin";
  const int fd = io::open_retry(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC,
                                0600);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(io::write_full(fd, "durable").status, io::IoStatus::Ok);
  EXPECT_TRUE(io::fsync_retry(fd));
  io::close_fd(fd);
  ::unlink(path.c_str());
}

// ------------------------------------------------------------ FrameReader

TEST(FrameReaderTest, ReassemblesAcrossArbitraryChunks) {
  FrameReader reader(256);
  EXPECT_TRUE(reader.feed("hel"));
  EXPECT_FALSE(reader.pop().has_value());
  EXPECT_EQ(reader.partial_bytes(), 3u);
  EXPECT_TRUE(reader.feed("lo\nwor"));
  EXPECT_EQ(*reader.pop(), "hello");
  EXPECT_TRUE(reader.feed("ld\n\n"));
  EXPECT_EQ(*reader.pop(), "world");
  EXPECT_EQ(*reader.pop(), "");  // empty frame is a frame
  EXPECT_FALSE(reader.pop().has_value());
  EXPECT_EQ(reader.frames_assembled(), 3u);
}

TEST(FrameReaderTest, OversizedPartialFramePoisons) {
  FrameReader reader(8);
  EXPECT_FALSE(reader.feed(std::string(16, 'a')));  // no newline in sight
  EXPECT_TRUE(reader.poisoned());
  EXPECT_FALSE(reader.feed("tail"));
}

TEST(FrameReaderTest, OversizedCompleteFramePoisons) {
  FrameReader reader(8);
  EXPECT_FALSE(reader.feed(std::string(16, 'a') + "\n"));
  EXPECT_TRUE(reader.poisoned());
}

// ------------------------------------------------------------- SendBuffer

TEST(SendBufferTest, PartialWriteResumesMidFrame) {
  SendBuffer buf;
  buf.push_frame("abcdef");
  buf.push_frame("gh");
  EXPECT_EQ(buf.pending_bytes(), 7u + 3u);  // newline-terminated
  EXPECT_EQ(buf.chunk(), "abcdef\ngh\n");
  buf.consume(4);  // short write mid-frame
  EXPECT_EQ(buf.chunk(), "ef\ngh\n");
  buf.consume(6);
  EXPECT_TRUE(buf.empty());
}

// ---------------------------------------------------------- control codec

TEST(SessionCodec, HelloRoundTrips) {
  HelloFrame h;
  h.version = 1;
  h.worker_id = 7;
  h.token = 0xdeadbeefULL;
  h.rx_seq = 42;
  const std::string wire = encode_hello(h);
  EXPECT_TRUE(is_control_frame(wire));
  const auto back = decode_hello(wire);
  ASSERT_TRUE(back);
  EXPECT_EQ(back->version, h.version);
  EXPECT_EQ(back->worker_id, h.worker_id);
  EXPECT_EQ(back->token, h.token);
  EXPECT_EQ(back->rx_seq, h.rx_seq);
}

TEST(SessionCodec, WelcomeAndAckRoundTrip) {
  WelcomeFrame w;
  w.token = 99;
  w.rx_seq = 5;
  w.resumed = true;
  const auto wb = decode_welcome(encode_welcome(w));
  ASSERT_TRUE(wb);
  EXPECT_EQ(wb->token, 99u);
  EXPECT_EQ(wb->rx_seq, 5u);
  EXPECT_TRUE(wb->resumed);

  const auto ab = decode_ack(encode_ack(AckFrame{17}));
  ASSERT_TRUE(ab);
  EXPECT_EQ(ab->rx_seq, 17u);
}

// Handshake frames are a wire format peers of other versions read: their
// bytes, checksum included, must not change.
TEST(SessionCodec, HandshakeBytesArePinned) {
  EXPECT_EQ(encode_hello(HelloFrame{2, 3, 12345, 6}),
            "tora!hello crc=738b4666 v=2 worker=3 token=12345 rx=6");
  EXPECT_EQ(encode_welcome(WelcomeFrame{2, 0x9f00000000000002ull, 17, true}),
            "tora!welcome crc=f08d35ca v=2 "
            "token=11457157452030541826 rx=17 resume=1");
  EXPECT_EQ(encode_ack(AckFrame{42}), "tora!ack crc=ee7d1702 rx=42");
}

/// A control line with a valid seal around `fields`.
std::string sealed_control(std::string_view verb, std::string_view fields) {
  std::string line;
  tora::proto::open_line(line, verb);
  line += fields;
  tora::proto::seal_line(line, verb.size());
  return line;
}

// `v` is a u32: a decimal above 2^32 - 1 is a malformed frame, not a
// version that wraps around to 1 or 2.
TEST(SessionCodec, HelloVersionAbove32BitsIsMalformed) {
  for (const char* v : {"4294967296", "4294967297", "4294967298",
                        "18446744073709551615"}) {
    const std::string line = sealed_control(
        "tora!hello", std::string(" v=") + v + " worker=0 token=0 rx=0");
    EXPECT_FALSE(decode_hello(line)) << line;
  }
  const auto top = decode_hello(
      sealed_control("tora!hello", " v=4294967295 worker=0 token=0 rx=0"));
  ASSERT_TRUE(top);
  EXPECT_EQ(top->version, 0xFFFFFFFFu);
}

TEST(SessionCodec, WelcomeVersionAbove32BitsIsMalformed) {
  for (const char* v : {"4294967296", "4294967297", "4294967298",
                        "18446744073709551615"}) {
    const std::string line = sealed_control(
        "tora!welcome", std::string(" v=") + v + " token=5 rx=0 resume=0");
    EXPECT_FALSE(decode_welcome(line)) << line;
  }
  const auto top = decode_welcome(
      sealed_control("tora!welcome", " v=4294967295 token=5 rx=0 resume=0"));
  ASSERT_TRUE(top);
  EXPECT_EQ(top->version, 0xFFFFFFFFu);
}

TEST(SessionCodec, EveryTruncationOfAValidHelloIsRejected) {
  const std::string wire = encode_hello(HelloFrame{kTransportVersion, 3, 12345, 6});
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(decode_hello(wire.substr(0, len)))
        << "truncation at byte " << len << " parsed";
  }
}

TEST(SessionCodec, SingleByteCorruptionIsRejected) {
  const std::string wire = encode_hello(HelloFrame{kTransportVersion, 3, 12345, 6});
  for (std::size_t at = 0; at < wire.size(); ++at) {
    std::string bad = wire;
    bad[at] = static_cast<char>(bad[at] ^ 0x01);
    EXPECT_FALSE(decode_hello(bad)) << "flip at byte " << at << " parsed";
  }
}

TEST(SessionCodec, UnknownDuplicateAndMissingFieldsAreRejected) {
  EXPECT_FALSE(decode_hello("tora!hello v=2 worker=0 token=0 rx=0"));  // no crc
  EXPECT_FALSE(decode_ack(encode_hello(HelloFrame{})));  // wrong verb
  EXPECT_FALSE(decode_hello("garbage"));
  EXPECT_FALSE(decode_hello(""));
  // App frames never look like control frames and vice versa.
  EXPECT_FALSE(is_control_frame("heartbeat crc=0 worker=0"));
}

// ------------------------------------------------------- SessionSendQueue

std::string hb(int n) {
  return "heartbeat frame_" + std::to_string(n);
}

TEST(SendQueue, SequencesAcksAndReplay) {
  SessionConfig cfg;
  TransportCounters counters;
  SessionSendQueue q(cfg, &counters);
  q.push("app a");
  q.push("app b");
  q.push("app c");
  EXPECT_EQ(q.accepted(), 3u);
  EXPECT_EQ(*q.next_to_send(), "app a");
  EXPECT_EQ(*q.next_to_send(), "app b");
  EXPECT_FALSE(q.fully_sent());
  // Peer acked the first frame only.
  q.acked(1);
  EXPECT_EQ(q.base_seq(), 1u);
  EXPECT_EQ(q.depth(), 2u);
  // Connection dies; peer reconnects still reporting rx=1: frame b replays.
  q.rewind(1);
  EXPECT_EQ(counters.frames_replayed, 1u);
  EXPECT_EQ(*q.next_to_send(), "app b");
  EXPECT_EQ(*q.next_to_send(), "app c");
  q.acked(3);
  EXPECT_EQ(q.depth(), 0u);
}

TEST(SendQueue, HeartbeatsCoalesceInPlace) {
  SessionConfig cfg;
  TransportCounters counters;
  SessionSendQueue q(cfg, &counters);
  q.push("app a");
  q.push(hb(1));
  q.push("app b");
  q.push(hb(2));  // replaces hb(1) in place, same sequence slot
  EXPECT_EQ(q.depth(), 3u);
  EXPECT_EQ(counters.heartbeats_coalesced, 1u);
  EXPECT_EQ(*q.next_to_send(), "app a");
  EXPECT_EQ(*q.next_to_send(), hb(2));
  EXPECT_EQ(*q.next_to_send(), "app b");
}

TEST(SendQueue, BackpressureLatchesAtHighReleasesAtLow) {
  SessionConfig cfg;
  cfg.queue_low = 2;
  cfg.queue_high = 4;
  cfg.queue_cap = 8;
  TransportCounters counters;
  SessionSendQueue q(cfg, &counters);
  q.push("app 0");
  q.push("app 1");
  q.push("app 2");
  EXPECT_FALSE(q.backpressured());
  q.push("app 3");
  EXPECT_TRUE(q.backpressured());
  EXPECT_EQ(counters.backpressure_events, 1u);
  (void)q.next_to_send();
  q.acked(1);
  EXPECT_TRUE(q.backpressured()) << "must hold until the LOW mark";
  (void)q.next_to_send();
  q.acked(2);
  EXPECT_FALSE(q.backpressured());
}

TEST(SendQueue, HeartbeatsShedAtCapAppFramesThrow) {
  SessionConfig cfg;
  cfg.queue_low = 1;
  cfg.queue_high = 2;
  cfg.queue_cap = 3;
  TransportCounters counters;
  SessionSendQueue q(cfg, &counters);
  q.push("app 0");
  q.push("app 1");
  q.push("app 2");
  q.push(hb(1));  // at cap, no queued heartbeat to coalesce into: shed
  EXPECT_EQ(q.depth(), 3u);
  EXPECT_EQ(counters.heartbeats_shed, 1u);
  EXPECT_THROW(q.push("app 3"), std::runtime_error)
      << "application frames are never silently dropped";
}

TEST(SendQueue, ResetFreshRenumbersSurvivors) {
  SessionConfig cfg;
  TransportCounters counters;
  SessionSendQueue q(cfg, &counters);
  q.push("app a");
  q.push("app b");
  (void)q.next_to_send();
  q.acked(1);
  EXPECT_EQ(q.base_seq(), 1u);
  q.reset_fresh();
  EXPECT_EQ(q.base_seq(), 0u);
  EXPECT_EQ(q.accepted(), 1u);
  EXPECT_EQ(*q.next_to_send(), "app b");
}

// ------------------------------------------------------- ReconnectBackoff

TEST(Backoff, GrowsExponentiallyToCapWithBoundedJitter) {
  ReconnectBackoff b(1.0, 16.0, 0.25, 42);
  std::vector<double> delays;
  for (std::size_t attempt = 1; attempt <= 8; ++attempt) {
    delays.push_back(b.delay(attempt));
  }
  for (std::size_t i = 0; i < delays.size(); ++i) {
    const double nominal = std::min(16.0, static_cast<double>(1u << i));
    EXPECT_GE(delays[i], nominal * 0.75 - 1e-9);
    EXPECT_LE(delays[i], nominal * 1.25 + 1e-9);
  }
}

TEST(Backoff, SameSeedSameDelays) {
  ReconnectBackoff a(0.5, 8.0, 0.2, 7);
  ReconnectBackoff b(0.5, 8.0, 0.2, 7);
  for (std::size_t i = 1; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(a.delay(i), b.delay(i));
  }
}

TEST(Backoff, DifferentSeedsDesynchronizeTheStampede) {
  ReconnectBackoff a(1.0, 16.0, 0.25, 1);
  ReconnectBackoff b(1.0, 16.0, 0.25, 2);
  bool differs = false;
  for (std::size_t i = 1; i < 6; ++i) {
    if (a.delay(i) != b.delay(i)) differs = true;
  }
  EXPECT_TRUE(differs);
}

// ---------------------------------------------------------- SessionConfig

TEST(SessionConfigTest, ValidateRejectsNonsense) {
  SessionConfig bad;
  bad.queue_low = 10;
  bad.queue_high = 5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  SessionConfig bad2;
  bad2.max_hello_bytes = 1 << 20;  // > max_frame_bytes
  EXPECT_THROW(bad2.validate(), std::invalid_argument);
  SessionConfig ok;
  EXPECT_NO_THROW(ok.validate());
}

}  // namespace
