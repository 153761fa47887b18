// Tests for the `tora` command-line driver (parsing + in-process execution).

#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "core/recovery/recovery_log.hpp"
#include "oracles/v1_formats.hpp"
#include "proto/net/replication.hpp"
#include "sim/event.hpp"
#include "util/bytes.hpp"

namespace {

using tora::cli::Options;
using tora::cli::parse_options;
using tora::cli::run_cli;
using tora::cli::split_list;

TEST(CliParse, Defaults) {
  const Options o = parse_options({"run", "--workflow", "uniform"});
  EXPECT_EQ(o.command, "run");
  EXPECT_EQ(o.workflow, "uniform");
  EXPECT_EQ(o.policy, "exhaustive_bucketing");
  EXPECT_EQ(o.seed, 7u);
  EXPECT_TRUE(o.churn);
  EXPECT_EQ(o.placement, tora::sim::Placement::FirstFit);
}

TEST(CliParse, AllOptions) {
  const Options o = parse_options(
      {"run", "--workflow", "topeft", "--policy", "greedy_bucketing",
       "--seed", "99", "--workers", "12", "--no-churn", "--placement", "best",
       "--interval", "2.5", "--out", "m.csv", "--trace-log", "t.csv"});
  EXPECT_EQ(o.policy, "greedy_bucketing");
  EXPECT_EQ(o.seed, 99u);
  EXPECT_EQ(o.workers, 12u);
  EXPECT_FALSE(o.churn);
  EXPECT_EQ(o.placement, tora::sim::Placement::BestFit);
  EXPECT_DOUBLE_EQ(o.submit_interval_s, 2.5);
  EXPECT_EQ(o.output_path, "m.csv");
  EXPECT_EQ(o.trace_log, "t.csv");
}

TEST(CliParse, GridLists) {
  const Options o = parse_options(
      {"grid", "--workflows", "uniform,bimodal", "--policies",
       "max_seen,greedy_bucketing"});
  EXPECT_EQ(o.workflows, (std::vector<std::string>{"uniform", "bimodal"}));
  EXPECT_EQ(o.policies,
            (std::vector<std::string>{"max_seen", "greedy_bucketing"}));
}

TEST(CliParse, Errors) {
  EXPECT_THROW(parse_options({"bogus"}), std::invalid_argument);
  EXPECT_THROW(parse_options({"run"}), std::invalid_argument);  // no workflow
  EXPECT_THROW(parse_options({"run", "--workflow"}), std::invalid_argument);
  EXPECT_THROW(parse_options({"run", "--workflow", "x", "--seed", "abc"}),
               std::invalid_argument);
  EXPECT_THROW(parse_options({"run", "--workflow", "x", "--workers", "0"}),
               std::invalid_argument);
  EXPECT_THROW(parse_options({"run", "--workflow", "x", "--placement", "zz"}),
               std::invalid_argument);
  EXPECT_THROW(parse_options({"run", "--workflow", "x", "--interval", "-1"}),
               std::invalid_argument);
  EXPECT_THROW(parse_options({"run", "--workflow", "x", "--nope"}),
               std::invalid_argument);
}

TEST(CliParse, EmptyIsHelp) {
  EXPECT_EQ(parse_options({}).command, "help");
}

TEST(CliParse, EngineKnobValidation) {
  // --coarse-stepping is gone: the accounting it skipped is O(1) per event.
  for (const char* command : {"run", "grid", "tenants", "list"}) {
    try {
      (void)parse_options({command, "--coarse-stepping"});
      ADD_FAILURE() << command << " accepted --coarse-stepping";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), "unknown option '--coarse-stepping'")
          << command;
    }
  }
}

TEST(CliParse, ResilienceKnobs) {
  // Defaults: the whole layer is off and no storm scenario is scheduled.
  const Options d = parse_options({"run", "--workflow", "uniform"});
  EXPECT_FALSE(d.resilience.enabled());
  EXPECT_DOUBLE_EQ(d.storm_interval_s, 0.0);

  const Options o = parse_options(
      {"run", "--workflow", "uniform", "--deadline-quantile", "0.9",
       "--speculation", "--storm-threshold", "4",
       "--storm-interval", "600", "--storm-duration", "45",
       "--storm-fraction", "0.7"});
  EXPECT_TRUE(o.resilience.deadlines);
  EXPECT_DOUBLE_EQ(o.resilience.deadline_quantile, 0.9);
  EXPECT_TRUE(o.resilience.speculation);
  EXPECT_TRUE(o.resilience.storm_control);
  EXPECT_EQ(o.resilience.storm_enter, 4u);
  EXPECT_DOUBLE_EQ(o.storm_interval_s, 600.0);
  EXPECT_DOUBLE_EQ(o.storm_duration_s, 45.0);
  EXPECT_DOUBLE_EQ(o.storm_fraction, 0.7);

  // --storm-interval alone picks sensible burst defaults.
  const Options s =
      parse_options({"run", "--workflow", "uniform", "--storm-interval", "300"});
  EXPECT_DOUBLE_EQ(s.storm_duration_s, 60.0);
  EXPECT_DOUBLE_EQ(s.storm_fraction, 0.5);
}

TEST(CliParse, ResilienceKnobValidation) {
  // Validation happens at parse time (ResilienceConfig::validate), so a bad
  // knob fails before any simulation starts.
  const auto bad = [](std::vector<std::string> extra) {
    std::vector<std::string> args = {"run", "--workflow", "x"};
    for (auto& a : extra) args.push_back(std::move(a));
    EXPECT_THROW(parse_options(args), std::invalid_argument);
  };
  bad({"--deadline-quantile", "0"});
  bad({"--deadline-quantile", "1.5"});
  bad({"--deadline-quantile", "abc"});
  bad({"--storm-threshold", "0"});
  bad({"--storm-threshold", "1"});
  try {
    parse_options({"run", "--workflow", "x", "--storm-threshold", "1"});
    ADD_FAILURE() << "--storm-threshold 1 parsed";
  } catch (const std::invalid_argument& e) {
    // Degraded mode exits at one eviction, so it must enter at two or more.
    EXPECT_NE(std::string(e.what()).find("--storm-threshold must be >= 2"),
              std::string::npos)
        << e.what();
  }
  bad({"--probation", "0"});
  bad({"--probation", "-3"});
  bad({"--storm-interval", "0"});
  bad({"--storm-interval", "-10"});
  bad({"--storm-duration", "0"});
  bad({"--storm-fraction", "1.5"});
  bad({"--storm-fraction", "0"});
  // Burst shape without a schedule is a contradiction, not a silent no-op.
  bad({"--storm-duration", "30"});
  bad({"--storm-fraction", "0.5"});
}

TEST(CliParse, TransportDefaultsAndKnobs) {
  const Options d = parse_options({"proto", "--workflow", "uniform"});
  EXPECT_EQ(d.command, "proto");
  EXPECT_EQ(d.transport, "inproc");
  EXPECT_EQ(d.tcp_host, "127.0.0.1");
  EXPECT_EQ(d.tcp_port, 0u);

  const Options o = parse_options(
      {"proto", "--workflow", "uniform", "--transport", "tcp", "--listen",
       "0.0.0.0:9000", "--backoff-base", "0.5", "--backoff-cap", "8"});
  EXPECT_EQ(o.transport, "tcp");
  EXPECT_EQ(o.tcp_host, "0.0.0.0");
  EXPECT_EQ(o.tcp_port, 9000u);
  EXPECT_DOUBLE_EQ(o.tcp_backoff_base, 0.5);
  EXPECT_DOUBLE_EQ(o.tcp_backoff_cap, 8.0);

  // Flag order must not matter: TCP knobs before --transport tcp are fine.
  const Options r = parse_options({"proto", "--workflow", "uniform",
                                   "--listen", "localhost:0", "--transport",
                                   "tcp"});
  EXPECT_EQ(r.tcp_host, "localhost");
}

TEST(CliParse, TransportContradictionsFailAtParseTime) {
  const auto bad = [](std::vector<std::string> args, const std::string& msg) {
    try {
      parse_options(args);
      FAIL() << "expected invalid_argument for: " << msg;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(msg), std::string::npos)
          << "actual message: " << e.what();
    }
  };
  // Unknown transport value.
  bad({"proto", "--workflow", "x", "--transport", "udp"},
      "invalid --transport");
  // TCP-only knobs contradict the in-process transport — explicitly...
  bad({"proto", "--workflow", "x", "--transport", "inproc", "--listen",
       "127.0.0.1:9000"},
      "requires --transport tcp");
  // ...and implicitly (inproc is the default), in either flag order.
  bad({"proto", "--workflow", "x", "--backoff-base", "2"},
      "requires --transport tcp");
  bad({"proto", "--workflow", "x", "--listen", "127.0.0.1:0", "--transport",
       "inproc"},
      "requires --transport tcp");
  // Transport flags belong to the proto command only.
  bad({"run", "--workflow", "x", "--transport", "tcp"},
      "only valid for command 'proto'");
  bad({"grid", "--listen", "127.0.0.1:0"}, "only valid for command 'proto'");
  // Malformed listen specs.
  bad({"proto", "--workflow", "x", "--transport", "tcp", "--listen", "9000"},
      "expected HOST:PORT");
  bad({"proto", "--workflow", "x", "--transport", "tcp", "--listen", "h:"},
      "expected HOST:PORT");
  bad({"proto", "--workflow", "x", "--transport", "tcp", "--listen",
       "h:70000"},
      "expected 0..65535");
  // Backoff nonsense.
  bad({"proto", "--workflow", "x", "--transport", "tcp", "--backoff-base",
       "0"},
      "--backoff-base must be > 0");
  bad({"proto", "--workflow", "x", "--transport", "tcp", "--backoff-base",
       "4", "--backoff-cap", "2"},
      "--backoff-cap must be >= --backoff-base");
  // proto requires a workflow, like run/trace.
  bad({"proto"}, "requires --workflow");
}

TEST(CliParse, TenantsOptions) {
  // No --tenants: the canonical 4-tenant mix, drf arbiter, everyone honest.
  const Options d = parse_options({"tenants"});
  EXPECT_EQ(d.command, "tenants");
  EXPECT_TRUE(d.tenant_workflows.empty());
  EXPECT_EQ(d.arbiter, "drf");
  EXPECT_DOUBLE_EQ(d.misreport, 1.0);

  const Options o = parse_options(
      {"tenants", "--tenants", "uniform,bimodal,trimodal", "--arbiter",
       "karma", "--weights", "1,2,3", "--offsets", "0,100,250",
       "--misreport", "4"});
  EXPECT_EQ(o.tenant_workflows,
            (std::vector<std::string>{"uniform", "bimodal", "trimodal"}));
  EXPECT_EQ(o.arbiter, "karma");
  EXPECT_EQ(o.tenant_weights, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(o.tenant_offsets, (std::vector<double>{0.0, 100.0, 250.0}));
  EXPECT_DOUBLE_EQ(o.misreport, 4.0);
}

TEST(CliParse, TenantsValidation) {
  const auto bad = [](std::vector<std::string> args, const std::string& msg) {
    try {
      parse_options(args);
      FAIL() << "expected invalid_argument for: " << msg;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(msg), std::string::npos)
          << "actual message: " << e.what();
    }
  };
  bad({"tenants", "--arbiter", "nope"}, "invalid --arbiter");
  bad({"tenants", "--weights", "1,0"}, "--weights entries must be > 0");
  bad({"tenants", "--offsets", "-5"}, "--offsets entries must be >= 0");
  bad({"tenants", "--misreport", "0.5"}, "--misreport must be >= 1");
  // Length checks run against the canonical mix (4) without --tenants...
  bad({"tenants", "--weights", "1,2"}, "4 tenants, 2 weights");
  // ...and against the explicit list with it.
  bad({"tenants", "--tenants", "a,b,c", "--weights", "1,2"},
      "3 tenants, 2 weights");
  bad({"tenants", "--tenants", "a,b", "--offsets", "1"},
      "2 tenants, 1 offsets");
  // Tenant flags belong to the tenants command only.
  bad({"run", "--workflow", "x", "--misreport", "2"},
      "only valid for command 'tenants'");
  bad({"grid", "--arbiter", "karma"}, "only valid for command 'tenants'");
}

TEST(CliSplit, List) {
  EXPECT_EQ(split_list("a,b,c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_list("a,,b"), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(split_list("").empty());
}

TEST(CliRun, ListCommand) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"list"}, out, err), 0);
  EXPECT_NE(out.str().find("exhaustive_bucketing"), std::string::npos);
  EXPECT_NE(out.str().find("hybrid_bucketing"), std::string::npos);
  EXPECT_NE(out.str().find("topeft"), std::string::npos);
}

TEST(CliRun, HelpCommand) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"help"}, out, err), 0);
  EXPECT_NE(out.str().find("usage:"), std::string::npos);
}

TEST(CliRun, BadArgsReturnNonZeroWithUsage) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"frobnicate"}, out, err), 2);
  EXPECT_NE(err.str().find("unknown command"), std::string::npos);
  EXPECT_NE(err.str().find("usage:"), std::string::npos);
}

TEST(CliRun, TraceToStdout) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"trace", "--workflow", "uniform", "--seed", "3"}, out,
                    err),
            0);
  const std::string s = out.str();
  EXPECT_NE(s.find("id,category,cores"), std::string::npos);
  // 1000 tasks + header.
  EXPECT_EQ(static_cast<int>(std::count(s.begin(), s.end(), '\n')), 1001);
}

TEST(CliRun, RunSmallWorkflowEndToEnd) {
  std::ostringstream out, err;
  const int rc = run_cli({"run", "--workflow", "uniform", "--policy",
                          "max_seen", "--no-churn", "--workers", "8",
                          "--interval", "1"},
                         out, err);
  EXPECT_EQ(rc, 0) << err.str();
  EXPECT_NE(out.str().find("tasks completed 1000"), std::string::npos);
  EXPECT_NE(out.str().find("AWE"), std::string::npos);
}

TEST(CliRun, RunFromTraceFileWithOutputs) {
  const std::string trace_path = ::testing::TempDir() + "/cli_trace.csv";
  const std::string metrics_path = ::testing::TempDir() + "/cli_metrics.csv";
  const std::string log_path = ::testing::TempDir() + "/cli_events.csv";
  {
    std::ostringstream out, err;
    ASSERT_EQ(run_cli({"trace", "--workflow", "bimodal", "--out", trace_path},
                      out, err),
              0);
  }
  std::ostringstream out, err;
  const int rc = run_cli({"run", "--workflow", trace_path, "--policy",
                          "exhaustive_bucketing", "--no-churn", "--workers",
                          "10", "--out", metrics_path, "--trace-log",
                          log_path},
                         out, err);
  EXPECT_EQ(rc, 0) << err.str();
  std::ifstream metrics(metrics_path);
  ASSERT_TRUE(metrics.good());
  std::string header;
  std::getline(metrics, header);
  EXPECT_EQ(header, "resource,awe,consumption,allocation,"
                    "internal_fragmentation,failed_allocation");
  std::ifstream log(log_path);
  ASSERT_TRUE(log.good());
  std::getline(log, header);
  EXPECT_EQ(header, "time,event,task,worker,cores,memory_mb,disk_mb");
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
  std::remove(log_path.c_str());
}

TEST(CliRun, GridWithCsvOutput) {
  const std::string path = ::testing::TempDir() + "/cli_grid.csv";
  std::ostringstream out, err;
  const int rc = run_cli({"grid", "--workflows", "uniform", "--policies",
                          "max_seen", "--no-churn", "--workers", "8", "--out",
                          path},
                         out, err);
  EXPECT_EQ(rc, 0) << err.str();
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::string header;
  std::getline(f, header);
  EXPECT_EQ(header, "resource,policy,workflow,awe");
  int rows = 0;
  for (std::string line; std::getline(f, line);) ++rows;
  EXPECT_EQ(rows, 3);  // one per managed resource
  std::remove(path.c_str());
}

TEST(CliRun, GridReplicationsShowSpread) {
  std::ostringstream out, err;
  const int rc = run_cli({"grid", "--workflows", "uniform", "--policies",
                          "max_seen", "--no-churn", "--workers", "8",
                          "--replications", "2"},
                         out, err);
  EXPECT_EQ(rc, 0) << err.str();
  EXPECT_NE(out.str().find("mean +/- sd over 2 runs"), std::string::npos);
  EXPECT_NE(out.str().find("+-"), std::string::npos);
}

TEST(CliParse, ReplicationsValidation) {
  EXPECT_THROW(parse_options({"grid", "--replications", "0"}),
               std::invalid_argument);
  EXPECT_EQ(parse_options({"grid", "--replications", "5"}).replications, 5u);
}

namespace {
// A tiny hand-written trace so the proto e2e runs stay fast (the named
// workflows generate 1000 tasks).
std::string write_small_trace(const char* filename, int tasks) {
  const std::string path = ::testing::TempDir() + "/" + filename;
  std::ofstream out(path);
  out << "id,category,cores,memory_mb,disk_mb,duration_s,peak_fraction\n";
  for (int i = 0; i < tasks; ++i) {
    out << i << ",small,2,1024,1024,30,0.5\n";
  }
  return path;
}
}  // namespace

TEST(CliRun, ProtoInprocEndToEnd) {
  const std::string trace = write_small_trace("cli_proto_inproc.csv", 12);
  std::ostringstream out, err;
  const int rc = run_cli(
      {"proto", "--workflow", trace, "--policy", "max_seen", "--workers", "4"},
      out, err);
  EXPECT_EQ(rc, 0) << err.str();
  EXPECT_NE(out.str().find("over inproc transport"), std::string::npos);
  EXPECT_NE(out.str().find("tasks completed 12"), std::string::npos);
  EXPECT_NE(out.str().find("AWE"), std::string::npos);
  std::remove(trace.c_str());
}

TEST(CliRun, ProtoTcpEndToEnd) {
  const std::string trace = write_small_trace("cli_proto_tcp.csv", 12);
  std::ostringstream out, err;
  const int rc = run_cli({"proto", "--workflow", trace, "--policy", "max_seen",
                          "--workers", "3", "--transport", "tcp", "--listen",
                          "127.0.0.1:0"},
                         out, err);
  EXPECT_EQ(rc, 0) << err.str();
  const std::string s = out.str();
  EXPECT_NE(s.find("over tcp transport"), std::string::npos);
  EXPECT_NE(s.find("tasks completed 12"), std::string::npos);
  EXPECT_NE(s.find("transport: connections 3 accepted"), std::string::npos);
  EXPECT_NE(s.find("state fingerprint "), std::string::npos);
  std::remove(trace.c_str());
}

// ------------------------------------------------------------------- fsck

TEST(CliParse, FsckTakesPositionalDirectory) {
  const Options o = parse_options({"fsck", "/some/dir"});
  EXPECT_EQ(o.command, "fsck");
  EXPECT_EQ(o.fsck_dir, "/some/dir");
  EXPECT_THROW(parse_options({"fsck"}), std::invalid_argument);
  EXPECT_THROW(parse_options({"fsck", "--workflow", "x"}),
               std::invalid_argument);
}

TEST(CliRun, FsckRejectsMissingDirectory) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"fsck", "/does/not/exist"}, out, err), 2);
  EXPECT_NE(err.str().find("is not a directory"), std::string::npos);
}

namespace rec = tora::core::recovery;

// Builds a two-generation recovery directory the way a real run would:
// genesis journal, one rotation, a few post-rotation records.
std::string build_recovery_dir(const std::string& name) {
  const std::string root = ::testing::TempDir() + name;
  rec::FileStorage storage(root);
  for (const std::string& obj : storage.list()) storage.remove(obj);
  rec::RecoveryLog log(storage);
  log.open_fresh();
  log.append(rec::RecordType::Started, "");
  log.append(rec::RecordType::Tick, "t1");
  log.sync();
  log.rotate("snapshot body at rotation", 5);
  log.append(rec::RecordType::Tick, "t2");
  log.sync();
  log.close();
  return root;
}

void flip_byte(const std::string& path, std::size_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x40);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

TEST(CliRun, FsckReportsHealthyDirectory) {
  const std::string root = build_recovery_dir("fsck_healthy");
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"fsck", root}, out, err), 0) << err.str();
  const std::string s = out.str();
  EXPECT_NE(s.find("(genesis: none)"), std::string::npos) << s;
  EXPECT_NE(s.find("sealed,"), std::string::npos) << s;
  EXPECT_NE(s.find("recovery would seed from snapshot-1"), std::string::npos)
      << s;
  EXPECT_NE(s.find("through journal-1"), std::string::npos) << s;
  EXPECT_EQ(s.find("FELL BACK"), std::string::npos) << s;
}

TEST(CliRun, FsckReportsFallbackOnCorruptSnapshot) {
  const std::string root = build_recovery_dir("fsck_fallback");
  flip_byte(root + "/snapshot-1", 12);  // inside the sealed body
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"fsck", root}, out, err), 0) << err.str();
  const std::string s = out.str();
  EXPECT_NE(s.find("CORRUPT (seal check failed)"), std::string::npos) << s;
  EXPECT_NE(s.find("recovery would seed from genesis"), std::string::npos)
      << s;
  EXPECT_NE(s.find("FELL BACK"), std::string::npos) << s;
}

TEST(CliRun, FsckNamesAnUnsupportedSnapshotVersion) {
  const std::string root = build_recovery_dir("fsck_version");
  // Reseal generation 1's snapshot as container version 4: a valid CRC-32C
  // over another version is a skew, not corruption.
  std::string sealed = "TORASNAP";
  tora::util::ByteWriter version;
  version.u32(4);
  sealed += version.bytes();
  sealed += "body written by a newer build";
  tora::util::ByteWriter crc;
  crc.u32(tora::util::crc32c(sealed));
  sealed += crc.bytes();
  {
    std::ofstream f(root + "/snapshot-1", std::ios::binary | std::ios::trunc);
    f << sealed;
  }
  std::ostringstream out, err;
  run_cli({"fsck", root}, out, err);
  const std::string s = out.str();
  EXPECT_NE(s.find("sealed, unsupported version 4 (this build reads 3)"),
            std::string::npos)
      << s;
  EXPECT_EQ(s.find("CORRUPT (seal check failed)"), std::string::npos) << s;
}

// A directory an older build wrote (CRC-32 seals) is named as such, object
// by object, and the scan refuses it by format instead of falling back.
TEST(CliRun, FsckNamesAnOlderFormatDirectory) {
  const std::string root = ::testing::TempDir() + "fsck_older_format";
  {
    rec::FileStorage storage(root);
    for (const std::string& obj : storage.list()) storage.remove(obj);
    namespace v1 = tora::oracles::v1;
    std::string tick;
    v1::put_le(tick, 1, 8);
    storage.write_file_durable("snapshot-1", v1::snapshot_container("body"));
    for (std::uint64_t e : {0, 1}) {
      storage.write_file_durable(
          rec::RecoveryLog::journal_name(e),
          v1::epoch_frame(e, 4 * e) + v1::journal_frame(0x03, tick));
    }
  }
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"fsck", root}, out, err), 1) << out.str();
  const std::string s = out.str();
  EXPECT_NE(s.find("OLDER FORMAT: container version 2, CRC-32 seal (this "
                   "build reads version 3, CRC-32C)"),
            std::string::npos)
      << s;
  EXPECT_NE(s.find("OLDER FORMAT: CRC-32 frames (this build reads CRC-32C)"),
            std::string::npos)
      << s;
  EXPECT_NE(s.find("UNRECOVERABLE"), std::string::npos) << s;
  EXPECT_NE(s.find("written in an older format: journal with CRC-32 frames"),
            std::string::npos)
      << s;
  EXPECT_EQ(s.find("CORRUPT"), std::string::npos) << s;
}

TEST(CliRun, FsckReportsUnrecoverableDamage) {
  const std::string root = build_recovery_dir("fsck_unrecoverable");
  // Mid-file corruption of the sealed genesis journal AND a dead snapshot:
  // durable history exists that cannot be reached — salvage must refuse.
  flip_byte(root + "/snapshot-1", 12);
  flip_byte(root + "/journal-0", 5);  // first record; later records intact
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"fsck", root}, out, err), 1) << out.str();
  const std::string s = out.str();
  EXPECT_NE(s.find("UNRECOVERABLE"), std::string::npos) << s;
  EXPECT_NE(s.find("CORRUPT mid-file"), std::string::npos) << s;
}

TEST(CliRun, FsckListsOrphansAndForeignObjects) {
  const std::string root = build_recovery_dir("fsck_orphans");
  {
    rec::FileStorage storage(root);
    storage.write_file_durable("snapshot-7.tmp", "half-written");
    storage.write_file_durable("claims.bin", "not ours");
  }
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"fsck", root}, out, err), 0) << err.str();
  const std::string s = out.str();
  EXPECT_NE(s.find("orphaned rotation temp: snapshot-7.tmp"),
            std::string::npos)
      << s;
  EXPECT_NE(s.find("foreign object (ignored by recovery): claims.bin"),
            std::string::npos)
      << s;
}

TEST(CliParse, ReplicationFlags) {
  const Options o = parse_options(
      {"proto", "--workflow", "uniform", "--standby", "10.0.0.2:7000",
       "--commit-mode", "async", "--replication-lag-cap", "8"});
  EXPECT_EQ(o.standby_addr, "10.0.0.2:7000");
  EXPECT_EQ(o.commit_mode, "async");
  EXPECT_EQ(o.replication_lag_cap, 8u);

  const Options serve = parse_options(
      {"proto", "--workflow", "uniform", "--standby-serve", "0.0.0.0:7000"});
  EXPECT_EQ(serve.standby_serve_addr, "0.0.0.0:7000");
  EXPECT_EQ(serve.commit_mode, "sync");  // default
}

TEST(CliParse, ReplicationFlagErrors) {
  // Replication is a proto concept.
  EXPECT_THROW(parse_options({"run", "--workflow", "x", "--standby",
                              "h:1"}),
               std::invalid_argument);
  EXPECT_THROW(parse_options({"run", "--workflow", "x", "--standby-serve",
                              "h:1"}),
               std::invalid_argument);
  // One process, one role.
  EXPECT_THROW(parse_options({"proto", "--workflow", "x", "--standby", "h:1",
                              "--standby-serve", "h:2"}),
               std::invalid_argument);
  // Commit knobs describe the primary's barrier wait.
  EXPECT_THROW(parse_options({"proto", "--workflow", "x", "--commit-mode",
                              "sync"}),
               std::invalid_argument);
  EXPECT_THROW(parse_options({"proto", "--workflow", "x",
                              "--replication-lag-cap", "4"}),
               std::invalid_argument);
  // Only the two known commit modes.
  EXPECT_THROW(parse_options({"proto", "--workflow", "x", "--standby", "h:1",
                              "--commit-mode", "eventual"}),
               std::invalid_argument);
  // The journal stream is its own TCP connection; worker transport stays
  // in-process.
  EXPECT_THROW(parse_options({"proto", "--workflow", "x", "--transport",
                              "tcp", "--standby", "h:1"}),
               std::invalid_argument);
  // HOST:PORT shape validated at parse time.
  EXPECT_THROW(parse_options({"proto", "--workflow", "x", "--standby",
                              "nocolon"}),
               std::invalid_argument);
  EXPECT_THROW(parse_options({"proto", "--workflow", "x", "--standby",
                              "h:notaport"}),
               std::invalid_argument);
}

TEST(CliParse, CountersJsonAndEventsFlags) {
  EXPECT_EQ(parse_options({"run", "--workflow", "x", "--counters-json",
                           "c.json"})
                .counters_json_path,
            "c.json");
  EXPECT_EQ(parse_options({"proto", "--workflow", "x", "--counters-json",
                           "c.json"})
                .counters_json_path,
            "c.json");
  // Only run/proto produce counter families.
  EXPECT_THROW(parse_options({"grid", "--counters-json", "c.json"}),
               std::invalid_argument);
  // --events belongs to fsck, replaces the directory, and one of the two
  // must be given.
  EXPECT_EQ(parse_options({"fsck", "--events", "e.bin"}).fsck_events_path,
            "e.bin");
  EXPECT_THROW(parse_options({"run", "--workflow", "x", "--events", "e"}),
               std::invalid_argument);
  EXPECT_THROW(parse_options({"fsck", "dir", "--events", "e.bin"}),
               std::invalid_argument);
  EXPECT_THROW(parse_options({"fsck"}), std::invalid_argument);
}

std::string write_event_frame(const std::string& name, std::uint64_t next_seq,
                              std::vector<tora::sim::Event> events) {
  tora::util::ByteWriter w;
  tora::sim::detail::save_events_canonical(w, next_seq, std::move(events));
  const std::string path = ::testing::TempDir() + name;
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  const std::string bytes = w.take();
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

TEST(CliRun, FsckEventsValidFrame) {
  using tora::sim::Event;
  using tora::sim::EventKind;
  const std::string path = write_event_frame(
      "fsck_events_ok.bin", 10,
      {Event{1.5, EventKind::TaskSubmit, 3, 0, 0, 2},
       Event{4.0, EventKind::AttemptFinish, 3, 1, 1, 7}});
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"fsck", "--events", path}, out, err), 0) << err.str();
  const std::string s = out.str();
  EXPECT_NE(s.find("valid: 2 events, next_seq 10"), std::string::npos) << s;
  EXPECT_NE(s.find("time span [1.5, 4]"), std::string::npos) << s;
}

TEST(CliRun, FsckEventsRejectsPoisonedTieBreaker) {
  using tora::sim::Event;
  using tora::sim::EventKind;
  // next_seq must dominate every restored seq; 1 <= 7 is the typed
  // SnapshotError load_events_canonical raises.
  const std::string path = write_event_frame(
      "fsck_events_seq.bin", 1,
      {Event{4.0, EventKind::AttemptFinish, 3, 1, 1, 7}});
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"fsck", "--events", path}, out, err), 1) << out.str();
  EXPECT_NE(out.str().find("INVALID event frame (SnapshotError)"),
            std::string::npos)
      << out.str();
}

TEST(CliRun, FsckEventsRejectsTruncation) {
  using tora::sim::Event;
  using tora::sim::EventKind;
  const std::string path = write_event_frame(
      "fsck_events_trunc.bin", 10,
      {Event{1.0, EventKind::TaskSubmit, 1, 0, 0, 1},
       Event{2.0, EventKind::TaskSubmit, 2, 0, 0, 2}});
  // Chop the last record short.
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  in.close();
  std::string bytes = buf.str();
  bytes.resize(bytes.size() - 5);
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"fsck", "--events", path}, out, err), 1) << out.str();
  EXPECT_NE(out.str().find("INVALID event frame"), std::string::npos)
      << out.str();
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

TEST(CliRun, CountersJsonOnRun) {
  const std::string path = ::testing::TempDir() + "cli_run_counters.json";
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"run", "--workflow", "uniform", "--workers", "8",
                     "--counters-json", path},
                    out, err),
            0)
      << err.str();
  EXPECT_NE(out.str().find("counters written to " + path), std::string::npos);
  const std::string json = slurp(path);
  // A plain simulation only has the resilience family.
  EXPECT_NE(json.find("\"resilience\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"speculations_launched\""), std::string::npos) << json;
  EXPECT_EQ(json.find("\"chaos\""), std::string::npos) << json;
}

TEST(CliRun, CountersJsonOnInprocProto) {
  const std::string path = ::testing::TempDir() + "cli_proto_counters.json";
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"proto", "--workflow", "uniform", "--workers", "8",
                     "--counters-json", path},
                    out, err),
            0)
      << err.str();
  const std::string json = slurp(path);
  EXPECT_NE(json.find("\"chaos\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"resilience\""), std::string::npos) << json;
  EXPECT_EQ(json.find("\"replication\""), std::string::npos) << json;
}

TEST(CliRun, ReplicatedProtoEndToEnd) {
  // Find a free loopback port, release it, and hand it to the two CLI
  // roles. The tiny reuse window is closed by the primary-side retry loop.
  std::uint16_t port = 0;
  {
    tora::proto::net::ReplicationListener probe("127.0.0.1", 0);
    port = probe.port();
  }
  const std::string addr = "127.0.0.1:" + std::to_string(port);
  const std::string standby_json =
      ::testing::TempDir() + "cli_standby_counters.json";

  std::ostringstream standby_out, standby_err;
  int standby_rc = -1;
  std::thread standby([&] {
    standby_rc = run_cli({"proto", "--workflow", "uniform", "--workers", "4",
                          "--standby-serve", addr, "--counters-json",
                          standby_json},
                         standby_out, standby_err);
  });

  std::ostringstream primary_out, primary_err;
  int primary_rc = -1;
  for (int attempt = 0; attempt < 50; ++attempt) {
    primary_out.str("");
    primary_err.str("");
    primary_rc = run_cli({"proto", "--workflow", "uniform", "--workers", "4",
                          "--standby", addr, "--commit-mode", "sync"},
                         primary_out, primary_err);
    if (primary_err.str().find("cannot reach standby") == std::string::npos) {
      break;  // connected (or failed for a reason worth reporting)
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  standby.join();

  EXPECT_EQ(primary_rc, 0) << primary_err.str();
  EXPECT_EQ(standby_rc, 0) << standby_err.str();
  const std::string p = primary_out.str();
  const std::string s = standby_out.str();
  EXPECT_NE(p.find("replication (sync commit): shipped"), std::string::npos)
      << p;
  EXPECT_EQ(p.find("STANDBY LOST"), std::string::npos) << p;
  EXPECT_NE(s.find("primary disconnected: mirrored"), std::string::npos) << s;
  EXPECT_NE(s.find("rebuilt "), std::string::npos) << s;
  const std::string json = slurp(standby_json);
  EXPECT_NE(json.find("\"replication\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"records_applied\""), std::string::npos) << json;
}

// ------------------------------------------------------------ option scope

// The flags each command's handler reads, spelled out here independently of
// the option table in cli.cpp.
std::map<std::string, std::vector<std::string>> flags_read_by_command() {
  std::map<std::string, std::vector<std::string>> reads = {
      {"run",
       {"--workflow", "--policy", "--seed", "--workers", "--no-churn",
        "--placement", "--interval", "--out", "--trace-log",
        "--counters-json"}},
      {"grid",
       {"--workflows", "--policies", "--replications", "--out", "--seed",
        "--workers", "--no-churn", "--placement", "--interval"}},
      {"tenants",
       {"--tenants", "--arbiter", "--weights", "--offsets", "--misreport",
        "--policy", "--seed", "--workers", "--no-churn", "--placement",
        "--interval"}},
      {"proto",
       {"--workflow", "--policy", "--seed", "--workers", "--counters-json",
        "--transport", "--listen", "--backoff-base", "--backoff-cap",
        "--standby", "--standby-serve", "--commit-mode",
        "--replication-lag-cap"}},
      {"trace", {"--workflow", "--seed", "--out"}},
      {"plot", {"--csv", "--resource", "--filter-workflow"}},
      {"fsck", {"--events"}},
      {"list", {}},
      {"help", {}},
  };
  for (const char* command : {"run", "grid", "tenants"}) {
    for (const char* flag :
         {"--deadline-quantile", "--speculation", "--storm-threshold",
          "--storm-interval", "--storm-duration", "--storm-fraction"}) {
      reads[command].push_back(flag);
    }
  }
  return reads;
}

// A value each flag accepts ("" for a switch) and the flags it needs.
struct FlagSample {
  std::string value;
  std::vector<std::string> prerequisites;
};

const std::map<std::string, FlagSample>& flag_samples() {
  static const std::map<std::string, FlagSample> samples = {
      {"--workflow", {"uniform", {}}},
      {"--policy", {"max_seen", {}}},
      {"--seed", {"3", {}}},
      {"--workers", {"4", {}}},
      {"--no-churn", {"", {}}},
      {"--placement", {"best", {}}},
      {"--interval", {"1", {}}},
      {"--out", {"o.csv", {}}},
      {"--trace-log", {"t.csv", {}}},
      {"--counters-json", {"c.json", {}}},
      {"--deadline-quantile", {"0.9", {}}},
      {"--speculation", {"", {}}},
      {"--storm-threshold", {"4", {}}},
      {"--storm-interval", {"600", {}}},
      {"--storm-duration", {"45", {"--storm-interval", "600"}}},
      {"--storm-fraction", {"0.7", {"--storm-interval", "600"}}},
      {"--workflows", {"uniform,bimodal", {}}},
      {"--policies", {"max_seen", {}}},
      {"--replications", {"2", {}}},
      {"--tenants", {"uniform,bimodal", {}}},
      {"--arbiter", {"karma", {}}},
      {"--weights", {"1,1,1,1", {}}},
      {"--offsets", {"0,0,0,0", {}}},
      {"--misreport", {"2", {}}},
      {"--transport", {"tcp", {}}},
      {"--listen", {"127.0.0.1:0", {"--transport", "tcp"}}},
      {"--backoff-base", {"0.5", {"--transport", "tcp"}}},
      {"--backoff-cap", {"8", {"--transport", "tcp"}}},
      {"--standby", {"h:1", {}}},
      {"--standby-serve", {"h:1", {}}},
      {"--commit-mode", {"async", {"--standby", "h:1"}}},
      {"--replication-lag-cap", {"8", {"--standby", "h:1"}}},
      {"--csv", {"x.csv", {}}},
      {"--resource", {"cores", {}}},
      {"--filter-workflow", {"topeft", {}}},
      {"--events", {"e.bin", {}}},
  };
  return samples;
}

// Every flag x command pair: a pair on the list parses, any other pair is
// rejected for its scope, naming the flag.
TEST(CliParse, ScopeMatrixMatchesWhatEachCommandReads) {
  const auto reads = flags_read_by_command();
  ASSERT_EQ(flag_samples().size(), 36u);
  for (const auto& [command, flags] : reads) {
    for (const std::string& flag : flags) {
      EXPECT_EQ(flag_samples().count(flag), 1u) << command << " " << flag;
    }
  }
  // The smallest valid command line of each command.
  const std::map<std::string, std::vector<std::string>> base = {
      {"run", {"run", "--workflow", "uniform"}},
      {"proto", {"proto", "--workflow", "uniform"}},
      {"grid", {"grid"}},
      {"tenants", {"tenants"}},
      {"trace", {"trace", "--workflow", "uniform"}},
      {"plot", {"plot", "--csv", "x.csv"}},
      {"fsck", {"fsck", "dir"}},
      {"list", {"list"}},
      {"help", {"help"}},
  };
  ASSERT_EQ(base.size(), reads.size());
  for (const auto& [flag, sample] : flag_samples()) {
    for (const auto& [command, command_line] : base) {
      const std::vector<std::string>& read = reads.at(command);
      const bool valid =
          std::find(read.begin(), read.end(), flag) != read.end();
      std::vector<std::string> args = command_line;
      if (valid) {
        if (flag == "--events") args.pop_back();  // it replaces the directory
        args.insert(args.end(), sample.prerequisites.begin(),
                    sample.prerequisites.end());
      }
      args.push_back(flag);
      if (!sample.value.empty()) args.push_back(sample.value);
      if (valid) {
        EXPECT_NO_THROW(parse_options(args)) << command << " " << flag;
        continue;
      }
      try {
        parse_options(args);
        ADD_FAILURE() << command << " accepted " << flag;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "option '" + flag + "' is only valid for command"),
                  std::string::npos)
            << command << " " << flag << ": " << e.what();
      }
    }
  }
  // The help lists every command and flag, and nothing more.
  const std::string help = tora::cli::usage();
  for (const auto& [command, unused] : base) {
    EXPECT_NE(help.find("  tora " + command), std::string::npos) << command;
  }
  for (const auto& [flag, unused] : flag_samples()) {
    EXPECT_NE(help.find("  " + flag + " "), std::string::npos) << flag;
  }
  EXPECT_EQ(help.find("--engine"), std::string::npos);
  EXPECT_EQ(help.find("--probation"), std::string::npos);
}

TEST(CliParse, ScopeErrorsNameTheCommandsAndComeFirst) {
  const auto message = [](const std::vector<std::string>& args) {
    try {
      parse_options(args);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("(accepted)");
  };
  EXPECT_EQ(message({"grid", "--trace-log", "t.csv"}),
            "option '--trace-log' is only valid for command 'run'");
  EXPECT_EQ(message({"trace", "--workflow", "x", "--policy", "max_seen"}),
            "option '--policy' is only valid for commands run, proto and "
            "tenants");
  EXPECT_EQ(message({"list", "--seed", "1"}),
            "option '--seed' is only valid for commands run, proto, grid, "
            "tenants and trace");
  // Before the flag's value is parsed...
  EXPECT_EQ(message({"proto", "--workflow", "x", "--interval", "nan"}),
            "option '--interval' is only valid for commands run, grid and "
            "tenants");
  // ...and before any rule about combinations or required inputs.
  EXPECT_EQ(message({"fsck", "--workflow", "x"}),
            "option '--workflow' is only valid for commands run, proto and "
            "trace");
  EXPECT_EQ(message({"run", "--workflow", "x", "--listen", "h:1"}),
            "option '--listen' is only valid for command 'proto'");
}

TEST(CliParse, StrictNumericValues) {
  const std::vector<std::vector<std::string>> rejected = {
      // std::stoull read "-1" as 2^64 - 1.
      {"run", "--workflow", "x", "--workers", "-1"},
      {"run", "--workflow", "x", "--seed", "-1"},
      {"grid", "--replications", "-1"},
      {"proto", "--workflow", "x", "--standby", "h:1",
       "--replication-lag-cap", "-1"},
      {"run", "--workflow", "x", "--storm-threshold", "-1"},
      // Reals must be finite.
      {"run", "--workflow", "x", "--interval", "nan"},
      {"run", "--workflow", "x", "--interval", "inf"},
      {"tenants", "--misreport", "nan"},
      {"tenants", "--offsets", "nan,0,0,0"},
      {"run", "--workflow", "x", "--storm-interval", "600",
       "--storm-fraction", "nan"},
      {"run", "--workflow", "x", "--storm-interval", "inf"},
      {"proto", "--workflow", "x", "--transport", "tcp", "--backoff-base",
       "inf"},
      {"run", "--workflow", "x", "--interval", "1e999"},
      // The whole string: no sign, no whitespace, no overflow.
      {"run", "--workflow", "x", "--seed", "+7"},
      {"run", "--workflow", "x", "--seed", " 7"},
      {"run", "--workflow", "x", "--seed", "7 "},
      {"run", "--workflow", "x", "--seed", "18446744073709551616"},
      {"run", "--workflow", "x", "--interval", " 1"},
  };
  for (const std::vector<std::string>& args : rejected) {
    try {
      parse_options(args);
      ADD_FAILURE() << "accepted " << args[args.size() - 2] << " "
                    << args.back();
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("invalid value for"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(parse_options({"run", "--workflow", "x", "--seed",
                           "18446744073709551615"})
                .seed,
            18446744073709551615u);
  EXPECT_DOUBLE_EQ(parse_options({"run", "--workflow", "x", "--interval",
                                  "2.5e-1"})
                       .submit_interval_s,
                   0.25);
}

TEST(CliParse, ReplicatedGridRejectsOut) {
  // The replicated grid prints mean +/- sd tables and writes no CSV.
  EXPECT_THROW(parse_options({"grid", "--replications", "2", "--out", "g.csv"}),
               std::invalid_argument);
  EXPECT_EQ(parse_options({"grid", "--replications", "1", "--out", "g.csv"})
                .output_path,
            "g.csv");
}

TEST(CliRun, GridSubsetRuns) {
  std::ostringstream out, err;
  const int rc = run_cli({"grid", "--workflows", "uniform", "--policies",
                          "max_seen,whole_machine", "--no-churn", "--workers",
                          "8"},
                         out, err);
  EXPECT_EQ(rc, 0) << err.str();
  EXPECT_NE(out.str().find("== AWE: cores =="), std::string::npos);
  EXPECT_NE(out.str().find("whole_machine"), std::string::npos);
}

}  // namespace
