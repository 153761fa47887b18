// End-to-end results pinned in-tree, so that a claim of bit-identical
// allocations is checked on every build instead of by an out-of-tree
// comparison. The simulator half runs every (workflow, policy) cell of the
// evaluation grid at workload seed 1 with the ExperimentConfig defaults; the
// manager half runs TopEFT seed 1 through RecoverableProtocolRuntime (35
// agents, a snapshot every 4 ticks). More runs cover the dispatch paths the
// grid never takes: degraded admission and speculation under eviction
// storms, the arbitrated multi-tenant pass under each arbiter, and the
// manager's backoff deferrals and admission gate under chaos. Only decoded
// results are pinned, never byte layouts. A change that moves these values
// on purpose re-baselines the tables below and says why. Two more cells pin
// counts of work instead of results, which repeat exactly: the predict
// calls of a 20k-task run under the deterministic policies, and the wire
// and journal bytes of the TopEFT run under exhaustive_bucketing.

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/metrics.hpp"
#include "core/recovery/storage.hpp"
#include "core/registry.hpp"
#include "core/resilience/resilience.hpp"
#include "core/tenancy/arbiter.hpp"
#include "exp/experiment.hpp"
#include "proto/manager.hpp"
#include "proto/recovery_runtime.hpp"
#include "sim/simulation.hpp"
#include "workloads/synthetic.hpp"
#include "workloads/topeft.hpp"
#include "workloads/workload.hpp"

namespace {

using tora::core::ResourceKind;

constexpr std::array<ResourceKind, 3> kKinds = {
    ResourceKind::Cores, ResourceKind::MemoryMB, ResourceKind::DiskMB};

struct PinnedCell {
  const char* workflow;
  const char* policy;
  std::array<double, 3> awe;
  double makespan_s;
  std::uint64_t events;
  std::size_t completed;
  std::size_t fatal;
  std::size_t evictions;
  std::array<double, 3> committed_integral;
};

// clang-format off
const PinnedCell kSimCells[] = {
    {"normal", "whole_machine", {0.25145116532008799, 0.060912489554470331, 0.061026143512024573}, 6479.4048891135453, 2179, 1000, 0, 60, {2687942.5103669195, 11009812522.462902, 11009812522.462902}},
    {"normal", "max_seen", {0.5664565608619172, 0.54303545363558159, 0.53338540129122469}, 5517.5406183748737, 2228, 1000, 0, 82, {1212161.320111078, 1248877918.7583072, 1274293749.6348238}},
    {"normal", "min_waste", {0.65620307237981701, 0.57947060653193749, 0.57669384005041602}, 5514.0913646728741, 2408, 1000, 0, 85, {1040701.6461831373, 1164720404.9186127, 1173274642.066287}},
    {"normal", "max_throughput", {0.58459654059395982, 0.52760166356050575, 0.53334441588819115}, 5546.7079121174957, 2724, 1000, 0, 93, {1156111.921760219, 1266277708.3712077, 1255945203.7593575}},
    {"normal", "quantized_bucketing", {0.44475538527449709, 0.41420573621913515, 0.4105807470061566}, 6026.6322616037805, 3111, 1000, 0, 114, {1515844.1199489252, 1611186605.3840315, 1629336030.520646}},
    {"normal", "greedy_bucketing", {0.59260575670975357, 0.56830145528980103, 0.56835116537501207}, 5748.8432259673555, 2804, 1000, 0, 98, {1141575.6584813746, 1181476392.1487126, 1183305576.9090757}},
    {"normal", "exhaustive_bucketing", {0.55993830200237094, 0.51419300664907219, 0.51430817826632802}, 5748.8432259673555, 2916, 1000, 0, 114, {1218970.7065540184, 1316159658.6244378, 1317031740.1127477}},
    {"uniform", "whole_machine", {0.28186230998406198, 0.069011569404133805, 0.070231488916323984}, 6506.4313131448789, 2181, 1000, 0, 62, {2727444.8138896017, 11171613957.691809, 11171613957.691809}},
    {"uniform", "max_seen", {0.54472039377025328, 0.5125934721775478, 0.52085714082508439}, 5270.1410764258962, 2202, 1000, 0, 71, {1417720.9607603464, 1507210402.9847498, 1509455381.0844066}},
    {"uniform", "min_waste", {0.5251411740382157, 0.48340971699727942, 0.4606629823677369}, 5258.2226301460287, 2473, 1000, 0, 88, {1465511.4418626423, 1592993067.2566001, 1699978195.8801186}},
    {"uniform", "max_throughput", {0.51308799201956357, 0.47702009536086204, 0.48176080131821902}, 5539.1799215688088, 3225, 1000, 0, 120, {1493913.856668738, 1608440277.1583772, 1622520602.802806}},
    {"uniform", "quantized_bucketing", {0.42150677033933243, 0.39141339133300701, 0.3913569380069658}, 5418.9816095894903, 3137, 1000, 0, 106, {1819854.119853837, 1955777443.9316869, 1993654130.2294047}},
    {"uniform", "greedy_bucketing", {0.48378974382295092, 0.46249893841707201, 0.45970351102591667}, 5355.6059920506223, 2873, 1000, 0, 103, {1586298.2057706607, 1661803878.850309, 1701759711.2945054}},
    {"uniform", "exhaustive_bucketing", {0.5262396132204028, 0.51565901191270858, 0.49520505260045306}, 5318.4119884545398, 2595, 1000, 0, 93, {1461121.2310956332, 1496893219.5947125, 1583798928.1229258}},
    {"exponential", "whole_machine", {0.12528488376480848, 0.038085544437353673, 0.03761606126709946}, 6506.4313131448789, 2181, 1000, 0, 62, {2727444.8138896017, 11171613957.691809, 11171613957.691809}},
    {"exponential", "max_seen", {0.16921835546311309, 0.1915531173748814, 0.16274104575564974}, 6562.5092544589497, 2258, 1000, 0, 70, {2010180.163669018, 2208757265.6931705, 2561724364.2035456}},
    {"exponential", "min_waste", {0.3376968169909863, 0.32140397920611752, 0.31028850292311067}, 5369.0424746367971, 2662, 1000, 0, 100, {1017794.7009480081, 1325009013.9333732, 1356106502.3145971}},
    {"exponential", "max_throughput", {0.24557041409132607, 0.23824929960347674, 0.21673704577860506}, 5703.8214006423614, 3198, 1000, 0, 121, {1397552.9042245767, 1783600438.439153, 1943482434.7589657}},
    {"exponential", "quantized_bucketing", {0.20921403981560477, 0.16714933655666092, 0.15573525110938743}, 5707.2673279374685, 3173, 1000, 0, 104, {1630175.9270179814, 2519460083.3212028, 2670619712.8817697}},
    {"exponential", "greedy_bucketing", {0.307935637551013, 0.32399191975790398, 0.31055740958842976}, 5866.1239415446153, 3704, 1000, 0, 148, {1107143.6772364564, 1307932992.5707622, 1353256573.4073045}},
    {"exponential", "exhaustive_bucketing", {0.3282701954883962, 0.33268485878900467, 0.32720977779832594}, 5656.0714658099741, 3464, 1000, 0, 141, {1040254.8972649269, 1283734267.7044115, 1286646906.5886936}},
    {"bimodal", "whole_machine", {0.25237556670271938, 0.060965287457726884, 0.060808748756725199}, 6809.4243579997947, 2185, 1000, 0, 64, {2790025.7357636243, 11427945413.687805, 11427945413.687805}},
    {"bimodal", "max_seen", {0.49877240688656882, 0.48548490026756752, 0.5011303603246845}, 5342.3161950033482, 2207, 1000, 0, 80, {1422831.8317686156, 1442583263.556258, 1393910659.546404}},
    {"bimodal", "min_waste", {0.5864494512969467, 0.55155649384985639, 0.5577482348548779}, 5402.044184017569, 3123, 1000, 0, 131, {1202981.8211843984, 1260690033.408348, 1242250928.8958945}},
    {"bimodal", "max_throughput", {0.58388553097848872, 0.54651246143504628, 0.55656599410632812}, 5486.5861144322025, 3144, 1000, 0, 128, {1202439.0437129159, 1267992628.087857, 1237883767.9408028}},
    {"bimodal", "quantized_bucketing", {0.42536411218343251, 0.42486518163226789, 0.38117355289180765}, 5655.0397071408506, 3048, 1000, 0, 108, {1656443.482321925, 1637214913.6144068, 1819169015.1820157}},
    {"bimodal", "greedy_bucketing", {0.48408075968038333, 0.47390173183015682, 0.46544802152483811}, 5609.4288599174542, 3119, 1000, 0, 111, {1449444.3709049067, 1462770191.9458296, 1483868082.0920663}},
    {"bimodal", "exhaustive_bucketing", {0.49102457252521253, 0.4887456378545893, 0.47102078323531232}, 5476.0813327178776, 3063, 1000, 0, 121, {1429538.0050078398, 1427891887.312319, 1475151904.3021235}},
    {"trimodal", "whole_machine", {0.31598489979860239, 0.076896763738338536, 0.076950299441168712}, 6479.4048891135453, 2179, 1000, 0, 60, {2687942.5103669195, 11009812522.462902, 11009812522.462902}},
    {"trimodal", "max_seen", {0.4891961275564124, 0.47093154167346551, 0.47983245000605768}, 6610.3746009811712, 2223, 1000, 0, 62, {1743832.8204582555, 1801843299.9808908, 1769339282.4902122}},
    {"trimodal", "min_waste", {0.53265548178092381, 0.49778310994211467, 0.50009821486274575}, 6131.8047372360043, 2612, 1000, 0, 73, {1592279.2071712594, 1695388733.5609796, 1688728525.7376258}},
    {"trimodal", "max_throughput", {0.54760963732174528, 0.52460559269023022, 0.49588711829573467}, 6148.7418134603022, 2739, 1000, 0, 81, {1560685.8239213307, 1619807556.8493447, 1714288322.5409975}},
    {"trimodal", "quantized_bucketing", {0.43713212820221653, 0.38518141755649166, 0.38279675900981219}, 6221.9274452498557, 2930, 1000, 0, 98, {1938980.8968544742, 2188326753.9041553, 2203717402.818881}},
    {"trimodal", "greedy_bucketing", {0.5563053976890292, 0.47161066983874922, 0.46002539406398896}, 5867.2773530101576, 3013, 1000, 0, 97, {1534472.899825662, 1803625690.593564, 1848261276.9707825}},
    {"trimodal", "exhaustive_bucketing", {0.57750220733837365, 0.4958644567036396, 0.51754433300222558}, 5561.0085807791138, 2817, 1000, 0, 93, {1473522.2643745372, 1706624897.5679083, 1639874808.20887}},
    {"colmena_xtb", "whole_machine", {0.13179114868116068, 0.0041481293784223407, 0.00015270421699742096}, 13666.741825290159, 2792, 1228, 0, 102, {5709251.184440611, 23385092851.468742, 23385092851.468742}},
    {"colmena_xtb", "max_seen", {0.50108798475842153, 0.11984330656495455, 0.0045646767628518365}, 6791.6295020268917, 2747, 1228, 0, 150, {1530111.8946077786, 852431002.955649, 826638437.5876226}},
    {"colmena_xtb", "min_waste", {0.53389092190824738, 0.11487761660996391, 0.0048512870905132672}, 7100.8085167178915, 2892, 1228, 0, 138, {1428382.7697524012, 847972718.4718242, 740409908.1462485}},
    {"colmena_xtb", "max_throughput", {0.5150901334215694, 0.11974644326205831, 0.0053330903630364451}, 7131.2765331444571, 3598, 1228, 0, 178, {1473564.930242432, 878726892.735165, 740872563.4259332}},
    {"colmena_xtb", "quantized_bucketing", {0.43751169120948746, 0.10692178435780561, 0.0047436696039776629}, 7427.0887591915853, 3750, 1228, 0, 180, {1707682.2609145502, 899254199.5421869, 748360876.4121836}},
    {"colmena_xtb", "greedy_bucketing", {0.58096498668257723, 0.53242754372107481, 0.045458521268902242}, 7100.8085167178915, 3106, 1228, 0, 149, {1294135.3440996462, 179661942.5497718, 77521597.28767979}},
    {"colmena_xtb", "exhaustive_bucketing", {0.6017763237682191, 0.56772428133045327, 0.050173189240377988}, 6791.6295020268917, 2910, 1228, 0, 140, {1256271.6891012632, 168696268.05781767, 69963012.00460166}},
    {"topeft", "whole_machine", {0.049553831091734515, 0.0075436664554122002, 0.0046691894531249913}, 23138.352466620159, 9724, 4569, 0, 179, {10157241.859683098, 41604062657.26197, 41604062657.26197}},
    {"topeft", "max_seen", {0.2596107747692763, 0.46413599151477569, 0.36605977181411176}, 23055.999527396831, 9704, 4569, 0, 155, {1935888.183452928, 678999897.8095043, 533546003.9296979}},
    {"topeft", "min_waste", {0.62200157717457993, 0.52964920022903006, 0.48218538616965184}, 23153.630573259419, 10120, 4569, 0, 241, {818137.8881769269, 607438457.1772699, 416099659.11823714}},
    {"topeft", "max_throughput", {0.58871455680433149, 0.52185745856702515, 0.47369354494244004}, 23153.630573259419, 10399, 4569, 0, 235, {861830.7985049835, 615342864.9889337, 422830328.5307537}},
    {"topeft", "quantized_bucketing", {0.26034195311368019, 0.44629196994942205, 0.39894267434984887}, 23418.651478051088, 12513, 4569, 0, 258, {1924995.0960642844, 705748250.3924773, 489741077.1205039}},
    {"topeft", "greedy_bucketing", {0.61567764984629603, 0.78073145075471451, 0.91656780043795705}, 23153.630573259419, 10166, 4569, 0, 233, {822883.2850271546, 404416095.96675944, 212967143.27305186}},
    {"topeft", "exhaustive_bucketing", {0.60130119912294944, 0.68201000042491311, 0.82056703633877448}, 23510.140500695295, 11025, 4569, 0, 250, {841011.689025042, 462181076.88352245, 237506283.35171968}},
};
// clang-format on

struct PinnedProto {
  const char* policy;
  std::array<double, 3> awe;
  std::size_t completed;
  std::size_t fatal;
  std::size_t messages;
  std::size_t rounds;
};

// clang-format off
const PinnedProto kProtoRuns[] = {
    {"exhaustive_bucketing", {0.60671890698984676, 0.70018688478540181, 0.76939480608142152}, 4569, 0, 11119, 12},
    {"max_seen", {0.56540334340857756, 0.46639079261285743, 0.38022870295708833}, 4569, 0, 10921, 14},
    {"whole_machine", {0.049553831091734508, 0.0075436664554122037, 0.0046691894531249922}, 4569, 0, 13828, 131},
};
// clang-format on

class PinnedSimulation : public ::testing::TestWithParam<std::string> {};

TEST_P(PinnedSimulation, GridCellsMatch) {
  const std::string& workflow = GetParam();
  tora::exp::ExperimentConfig cfg;
  cfg.workload_seed = 1;
  const auto workload = tora::workloads::make_workload(workflow, 1);
  std::size_t checked = 0;
  for (const PinnedCell& pin : kSimCells) {
    if (workflow != pin.workflow) continue;
    SCOPED_TRACE(std::string(pin.workflow) + "/" + pin.policy);
    const auto r = tora::exp::run_experiment(workload, pin.policy, cfg);
    for (std::size_t i = 0; i < kKinds.size(); ++i) {
      EXPECT_EQ(r.awe(kKinds[i]), pin.awe[i]);
      EXPECT_EQ(r.sim.committed_integral[kKinds[i]],
                pin.committed_integral[i]);
    }
    EXPECT_EQ(r.sim.makespan_s, pin.makespan_s);
    EXPECT_EQ(r.sim.events_processed, pin.events);
    EXPECT_EQ(r.sim.tasks_completed, pin.completed);
    EXPECT_EQ(r.sim.tasks_fatal, pin.fatal);
    EXPECT_EQ(r.sim.evictions, pin.evictions);
    ++checked;
  }
  EXPECT_EQ(checked, tora::core::all_policy_names().size());
}

INSTANTIATE_TEST_SUITE_P(
    EveryWorkflow, PinnedSimulation,
    ::testing::ValuesIn(tora::workloads::all_workflow_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

void PrintTo(const PinnedProto& pin, std::ostream* os) { *os << pin.policy; }

class PinnedManager : public ::testing::TestWithParam<PinnedProto> {};

TEST_P(PinnedManager, TopEftRunMatches) {
  const PinnedProto& pin = GetParam();
  const tora::exp::ExperimentConfig cfg;
  const auto workload = tora::workloads::make_topeft(1);
  tora::core::recovery::MemStorage storage;
  tora::core::recovery::RecoveryConfig recovery;
  recovery.snapshot_every_ticks = 4;
  tora::proto::RecoverableProtocolRuntime runtime(
      workload.tasks,
      [&] {
        return std::make_unique<tora::core::TaskAllocator>(
            tora::core::make_allocator(pin.policy, cfg.policy_seed,
                                       cfg.sim.worker_capacity,
                                       cfg.registry));
      },
      35, cfg.sim.worker_capacity, tora::proto::ChaosConfig{}, storage,
      recovery);
  const auto r = runtime.run();
  for (std::size_t i = 0; i < kKinds.size(); ++i) {
    EXPECT_EQ(r.accounting.awe(kKinds[i]), pin.awe[i]);
  }
  EXPECT_EQ(r.tasks_completed, pin.completed);
  EXPECT_EQ(r.tasks_fatal, pin.fatal);
  EXPECT_EQ(r.messages, pin.messages);
  EXPECT_EQ(r.rounds, pin.rounds);
}

INSTANTIATE_TEST_SUITE_P(
    TopEft, PinnedManager, ::testing::ValuesIn(kProtoRuns),
    [](const ::testing::TestParamInfo<PinnedProto>& info) {
      return std::string(info.param.policy);
    });

// --- the byte path ----------------------------------------------------------

// Bytes, not results: the same TopEFT seed 1 run under exhaustive_bucketing
// (perfbench's proto_topeft pass at one seed) moves exactly this many wire
// bytes (every line plus its newline, both directions) and journal bytes
// (every frame), on every host and build, so the counts gate the byte path
// where wall time cannot. Per task: 379.89 wire bytes, 8.33 journal records
// and 579.70 journal bytes. A build that seals lines with the 16-digit
// FNV-1a token of transport version 1 moves 88,952 more wire bytes (8 per
// line: 1,824,656) and 46,016 more journal bytes (8 per journaled input
// line: 2,694,664) with the same 38,082 journal records.
TEST(PinnedBytePath, TopEftSeed1BytesPerTask) {
  const tora::exp::ExperimentConfig cfg;
  const auto workload = tora::workloads::make_topeft(1);
  tora::core::recovery::MemStorage storage;
  tora::core::recovery::RecoveryConfig recovery;
  recovery.snapshot_every_ticks = 4;
  tora::proto::RecoverableProtocolRuntime runtime(
      workload.tasks,
      [&] {
        return std::make_unique<tora::core::TaskAllocator>(
            tora::core::make_allocator(tora::core::kExhaustiveBucketing,
                                       cfg.policy_seed,
                                       cfg.sim.worker_capacity,
                                       cfg.registry));
      },
      35, cfg.sim.worker_capacity, tora::proto::ChaosConfig{}, storage,
      recovery);
  const auto r = runtime.run();
  ASSERT_EQ(workload.tasks.size(), 4569u);
  ASSERT_EQ(r.tasks_completed, 4569u);
  EXPECT_EQ(r.bytes, 1735704u);
  EXPECT_EQ(r.recovery.journal_records, 38082u);
  EXPECT_EQ(r.recovery.journal_bytes, 2648648u);
}

// --- work at the paper's §VII scale -----------------------------------------

/// Counts predict() calls and forwards every other ResourcePolicy call, so
/// the allocator classifies the wrapped policy as it would the bare one.
class CountingPolicy final : public tora::core::ResourcePolicy {
 public:
  CountingPolicy(tora::core::ResourcePolicyPtr inner, std::size_t& predicts)
      : inner_(std::move(inner)), predicts_(predicts) {}
  void observe(double peak, double significance) override {
    inner_->observe(peak, significance);
  }
  double predict() override {
    ++predicts_;
    return inner_->predict();
  }
  double retry(double failed) override { return inner_->retry(failed); }
  std::string name() const override { return inner_->name(); }
  std::size_t record_count() const override { return inner_->record_count(); }
  void flush_observations() override { inner_->flush_observations(); }
  std::string sampler_state() const override {
    return inner_->sampler_state();
  }
  void restore_sampler_state(std::string_view state) override {
    inner_->restore_sampler_state(state);
  }

 private:
  tora::core::ResourcePolicyPtr inner_;
  std::size_t& predicts_;
};

struct PinnedWork {
  const char* policy;
  std::array<double, 3> awe;
  double makespan_s;
  std::uint64_t events;
};

// 20k-task Phasing Trimodal, workload seed 7, ExperimentConfig defaults.
// A deterministic category predicts once per completion, so a task costs a
// few predict calls; re-predicting every queued task on every pass cost
// 4,141 (max_seen) and 4,084 (whole_machine) per task.
// clang-format off
const PinnedWork kWorkRuns[] = {
    {"max_seen", {0.45818141292912812, 0.487881232180288, 0.48670471304602769}, 115703.16961291028, 42827},
    {"whole_machine", {0.31237818400895234, 0.076106661135809078, 0.076192516692086751}, 115415.64610976737, 42791},
};
// clang-format on

void PrintTo(const PinnedWork& pin, std::ostream* os) { *os << pin.policy; }

class PinnedWorkCount : public ::testing::TestWithParam<PinnedWork> {};

TEST_P(PinnedWorkCount, TwentyKTrimodalPredictsAFewTimesPerTask) {
  const PinnedWork& pin = GetParam();
  constexpr std::size_t kTasks = 20000;
  const auto workload = tora::workloads::generate_synthetic(
      tora::workloads::trimodal_spec(kTasks), 7);
  const tora::exp::ExperimentConfig cfg;
  std::size_t predicts = 0;
  tora::core::PolicyFactory inner = tora::core::make_policy_factory(
      pin.policy, cfg.policy_seed, cfg.registry);
  tora::core::TaskAllocator allocator(
      pin.policy,
      [&inner, &predicts](ResourceKind kind,
                          const tora::core::AllocatorConfig& config)
          -> tora::core::ResourcePolicyPtr {
        return std::make_unique<CountingPolicy>(inner(kind, config),
                                                predicts);
      },
      tora::core::make_allocator(pin.policy, cfg.policy_seed,
                                 cfg.sim.worker_capacity, cfg.registry)
          .config());
  tora::sim::Simulation sim(workload.tasks, allocator, cfg.sim);
  const auto r = sim.run();

  EXPECT_LE(predicts, 12 * kTasks);
  for (std::size_t i = 0; i < kKinds.size(); ++i) {
    EXPECT_EQ(r.accounting.awe(kKinds[i]), pin.awe[i]);
  }
  EXPECT_EQ(r.makespan_s, pin.makespan_s);
  EXPECT_EQ(r.events_processed, pin.events);
  EXPECT_EQ(r.tasks_completed, kTasks);
}

INSTANTIATE_TEST_SUITE_P(
    Deterministic, PinnedWorkCount, ::testing::ValuesIn(kWorkRuns),
    [](const ::testing::TestParamInfo<PinnedWork>& info) {
      return std::string(info.param.policy);
    });

// --- resilience, tenancy and chaos paths ------------------------------------

/// One counter of a family, by its field-list name.
struct PinnedCount {
  const char* name;
  std::size_t value;
};

/// Checks every field of counter family C against `pins`, in field-list
/// order.
template <typename C, std::size_t N>
void expect_counters(const C& actual, const PinnedCount (&pins)[N]) {
  const auto fields = C::fields();
  ASSERT_EQ(fields.size(), N);
  for (std::size_t i = 0; i < N; ++i) {
    SCOPED_TRACE(pins[i].name);
    EXPECT_STREQ(fields[i].name, pins[i].name);
    EXPECT_EQ(actual.*fields[i].member, pins[i].value);
  }
}

tora::core::resilience::ResilienceConfig every_feature() {
  tora::core::resilience::ResilienceConfig r;
  r.deadlines = true;
  r.speculation = true;
  r.reliability = true;
  r.storm_control = true;
  return r;
}

// The normal workflow under 300 s eviction storms (60% of the pool each)
// with every resilience feature on: degraded mode holds placement probes,
// and speculative duplicates launch and get promoted.
TEST(PinnedResilience, SimulatorStormsWithEveryFeature) {
  const auto workload = tora::workloads::make_workload("normal", 1);
  tora::sim::SimConfig cfg;
  cfg.seed = 3;
  cfg.churn.enabled = true;
  cfg.churn.initial_workers = 20;
  cfg.churn.min_workers = 12;
  cfg.churn.max_workers = 24;
  cfg.churn.mean_interarrival_s = 15.0;
  cfg.churn.mean_lifetime_s = 36000.0;
  cfg.churn.storm_interval_s = 300.0;
  cfg.churn.storm_duration_s = 30.0;
  cfg.churn.storm_evict_fraction = 0.6;
  cfg.resilience = every_feature();
  cfg.resilience.deadline_quantile = 1.0;
  cfg.resilience.deadline_slack = 3.0;
  cfg.resilience.min_records = 20;
  cfg.resilience.degraded_inflight_cap = 40;
  auto alloc = tora::core::make_allocator(tora::core::kExhaustiveBucketing, 7,
                                          cfg.worker_capacity);
  tora::sim::Simulation sim(workload.tasks, alloc, cfg);
  const auto r = sim.run();

  const std::array<double, 3> awe = {0.34743814062207018, 0.35192805215812911,
                                     0.35625233653833049};
  for (std::size_t i = 0; i < kKinds.size(); ++i) {
    EXPECT_EQ(r.accounting.awe(kKinds[i]), awe[i]);
  }
  EXPECT_EQ(r.makespan_s, 9599.7113143819734);
  EXPECT_EQ(r.events_processed, 11436u);
  EXPECT_EQ(r.tasks_completed, 1000u);
  EXPECT_EQ(r.tasks_fatal, 0u);
  EXPECT_EQ(r.evictions, 1693u);
  const PinnedCount resilience[] = {
      {"speculations_launched", 24}, {"speculations_promoted", 4},
      {"speculations_cancelled", 20}, {"adaptive_deadlines_used", 0},
      {"storms_entered", 30},        {"storms_exited", 30},
      {"dispatches_held", 287895},   {"probation_admissions", 0},
      {"requarantines", 0},          {"quarantine_amnesties", 0},
  };
  expect_counters(r.resilience, resilience);
}

struct PinnedTenant {
  std::size_t completed;
  double makespan_s;
  std::uint64_t granted;
  std::array<double, 3> committed_integral;
};

struct PinnedTenancyRun {
  const char* arbiter;
  std::array<PinnedTenant, 2> tenants;
};

// clang-format off
const PinnedTenancyRun kTenancyRuns[] = {
    {"drf", {{{1000, 10502.875880306306, 4367, {1850275.5779279559, 1800217689.0261087, 1772336105.8825858}},
              {1000, 10577.619489077528, 2295, {2239450.0128208939, 1435040192.437103, 2229886208.3078203}}}}},
    {"maxmin", {{{1000, 10381.348758235661, 4322, {1878985.5548055752, 1761605641.6120031, 1742647498.9502413}},
                 {1000, 8742.3893307194267, 2298, {2246339.2534698839, 1438406837.976263, 2233953295.5773411}}}}},
    {"karma", {{{1000, 10569.206495292094, 4436, {2007309.8006111919, 1843885096.106631, 1844341081.921875}},
                {1000, 8781.4791589637643, 2299, {2248537.1344101611, 1441898128.0868967, 2237355653.5513039}}}}},
};
// clang-format on

void PrintTo(const PinnedTenancyRun& pin, std::ostream* os) {
  *os << pin.arbiter;
}

class PinnedTenancy : public ::testing::TestWithParam<PinnedTenancyRun> {};

// Two tenants (normal under exhaustive bucketing at weight 1, bimodal
// under max_seen at weight 2) share the default pool through each
// arbitrated pass: DRF scores running allocations, max-min running counts,
// Karma its credits.
TEST_P(PinnedTenancy, TwoTenantsMatch) {
  const PinnedTenancyRun& pin = GetParam();
  const auto normal = tora::workloads::make_workload("normal", 1);
  const auto bimodal = tora::workloads::make_workload("bimodal", 1);
  const tora::sim::SimConfig cfg;
  auto a = tora::core::make_allocator(tora::core::kExhaustiveBucketing, 7,
                                      cfg.worker_capacity);
  auto b =
      tora::core::make_allocator(tora::core::kMaxSeen, 7, cfg.worker_capacity);
  tora::sim::Simulation sim({{normal.tasks, &a, {"a", 1.0}},
                             {bimodal.tasks, &b, {"b", 2.0}}},
                            cfg, tora::core::tenancy::make_arbiter(pin.arbiter));
  sim.run();

  const auto outcomes = sim.tenant_outcomes();
  ASSERT_EQ(outcomes.size(), pin.tenants.size());
  for (std::size_t t = 0; t < outcomes.size(); ++t) {
    SCOPED_TRACE(outcomes[t].name);
    EXPECT_EQ(outcomes[t].completed, pin.tenants[t].completed);
    EXPECT_EQ(outcomes[t].makespan_s, pin.tenants[t].makespan_s);
    EXPECT_EQ(outcomes[t].granted, pin.tenants[t].granted);
    for (std::size_t i = 0; i < kKinds.size(); ++i) {
      EXPECT_EQ(outcomes[t].committed_integral[kKinds[i]],
                pin.tenants[t].committed_integral[i]);
    }
    EXPECT_EQ(sim.tenants().running_count(
                  static_cast<tora::core::tenancy::TenantId>(t)),
              0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Arbiters, PinnedTenancy, ::testing::ValuesIn(kTenancyRuns),
    [](const ::testing::TestParamInfo<PinnedTenancyRun>& info) {
      return std::string(info.param.arbiter);
    });

// 200 trimodal tasks on 8 agents over lossy, duplicating, corrupting links,
// one severed worker and one crash before a result, with every resilience
// feature on and storms entered at two evictions: attempt timeouts back
// tasks off (deferred), and the degraded admission gate holds placements.
TEST(PinnedResilience, ManagerChaosWithEveryFeature) {
  auto workload = tora::workloads::make_workload("trimodal", 11);
  workload.tasks.resize(200);
  tora::proto::ChaosConfig chaos;
  chaos.seed = 1;
  chaos.to_worker.drop_prob = 0.08;
  chaos.to_worker.duplicate_prob = 0.05;
  chaos.to_worker.corrupt_prob = 0.05;
  chaos.to_manager = chaos.to_worker;
  chaos.sever_workers = 1;
  chaos.sever_after_messages = 60;
  chaos.worker_faults.resize(3);
  chaos.worker_faults[2].crash_point = tora::proto::CrashPoint::BeforeResult;
  chaos.liveness.resilience = every_feature();
  chaos.liveness.resilience.storm_enter = 2;
  chaos.liveness.resilience.storm_exit = 1;
  chaos.liveness.resilience.degraded_inflight_cap = 2;
  auto alloc = tora::core::make_allocator(tora::core::kMaxSeen, 7);
  tora::proto::ProtocolRuntime runtime(
      workload.tasks, alloc, 8, {16.0, 64.0 * 1024.0, 64.0 * 1024.0, 0.0},
      chaos);
  const auto r = runtime.run();

  const std::array<double, 3> awe = {0.82471606399262898, 0.70236177378427889,
                                     0.70232411979666187};
  for (std::size_t i = 0; i < kKinds.size(); ++i) {
    EXPECT_EQ(r.accounting.awe(kKinds[i]), awe[i]);
  }
  EXPECT_EQ(r.tasks_completed, 200u);
  EXPECT_EQ(r.tasks_fatal, 0u);
  EXPECT_EQ(r.messages, 1138u);
  EXPECT_EQ(r.rounds, 96u);
  const PinnedCount counters[] = {
      {"messages_dropped", 85},
      {"messages_duplicated", 53},
      {"messages_corrupted", 58},
      {"messages_severed", 70},
      {"links_severed", 1},
      {"malformed_lines", 61},
      {"stale_or_duplicate_results", 19},
      {"attempt_timeouts", 75},
      {"redispatches", 77},
      {"workers_declared_dead", 2},
      {"workers_quarantined", 0},
      {"protocol_evictions", 2},
      {"heartbeats", 568},
      {"duplicate_dispatches", 14},
      {"misaddressed_messages", 0},
      {"worker_crashes", 1},
      {"dispatches_deferred_backpressure", 0},
  };
  expect_counters(r.chaos, counters);
  const PinnedCount resilience[] = {
      {"speculations_launched", 4},   {"speculations_promoted", 4},
      {"speculations_cancelled", 0},  {"adaptive_deadlines_used", 75},
      {"storms_entered", 1},          {"storms_exited", 1},
      {"dispatches_held", 1686},      {"probation_admissions", 0},
      {"requarantines", 0},           {"quarantine_amnesties", 0},
  };
  expect_counters(r.resilience, resilience);
}

}  // namespace
