// Differential test of the free-capacity placement index
// (core/lifecycle/placement_index) against the map walks it replaced: the
// simulator's WorkerPool::find_worker_for and the protocol manager's
// place_worker, kept below as reference oracles. Seeded random sequences of
// joins, leaves, drains, commits and releases over heterogeneous capacities
// probe allocations at and one ulp around each worker's fit threshold; every
// answer must equal the reference's, before and after a save/load.

#include "core/lifecycle/placement_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "proto/manager.hpp"
#include "sim/worker_pool.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace tora::proto {

/// Friend of ProtocolManager: drives its worker registry and place_worker.
struct PlacementTestPeer {
  static void announce(ProtocolManager& m, std::uint64_t wid,
                       const core::ResourceVector& capacity) {
    Message msg;
    msg.type = MsgType::WorkerReady;
    msg.worker_id = wid;
    msg.resources = capacity;
    m.handle(msg);
  }
  static void commit(ProtocolManager& m, std::uint64_t wid,
                     const core::ResourceVector& alloc) {
    m.bind(wid, alloc);
  }
  static void release(ProtocolManager& m, std::uint64_t wid,
                      const core::ResourceVector& alloc) {
    m.release(wid, alloc);
  }
  static void remove(ProtocolManager& m, std::uint64_t wid) {
    m.remove_worker(wid, false);
  }
  static void set_backpressure(ProtocolManager& m, std::uint64_t wid,
                               bool on) {
    m.bp_sample_[wid] = on ? 1 : 0;
  }
  static core::resilience::ReliabilityTracker& reliability(
      ProtocolManager& m) {
    return m.reliability_;
  }
  static void advance(ProtocolManager& m, std::size_t ticks) {
    m.tick_ += ticks;
  }
  static void restore(ProtocolManager& m, const std::string& body) {
    util::ByteReader r(body);
    m.restore_state(r);
  }
  static std::vector<std::uint64_t> registered(const ProtocolManager& m) {
    std::vector<std::uint64_t> ids;
    for (const auto& [wid, ws] : m.workers_) ids.push_back(wid);
    return ids;
  }
  static core::ResourceVector free(const ProtocolManager& m,
                                   std::uint64_t wid) {
    const auto& ws = m.workers_.at(wid);
    return ws.capacity - ws.committed;
  }
  static std::optional<std::uint64_t> place(
      const ProtocolManager& m, const core::ResourceVector& alloc,
      std::optional<std::uint64_t> exclude, bool* bp_blocked) {
    return m.place_worker(alloc, exclude, bp_blocked);
  }

  /// ProtocolManager::place_worker as it was before the placement index: a
  /// walk over every registered worker in id order.
  static std::optional<std::uint64_t> reference_place(
      const ProtocolManager& m, const core::ResourceVector& alloc,
      std::optional<std::uint64_t> exclude, bool* bp_blocked) {
    const auto pushed_back = [&m, bp_blocked](std::uint64_t wid) {
      if (wid >= m.bp_sample_.size() || !m.bp_sample_[wid]) return false;
      if (bp_blocked) *bp_blocked = true;
      return true;
    };
    if (!m.cfg_.resilience.reliability) {
      for (const auto& [wid, ws] : m.workers_) {
        if (exclude && wid == *exclude) continue;
        if (!alloc.fits_within(ws.capacity - ws.committed)) continue;
        if (pushed_back(wid)) continue;
        return wid;
      }
      return std::nullopt;
    }
    std::optional<std::uint64_t> pick;
    double pick_score = -1.0;
    bool pick_probationary = true;
    const double now = static_cast<double>(m.tick_);
    for (const auto& [wid, ws] : m.workers_) {
      if (exclude && wid == *exclude) continue;
      if (!alloc.fits_within(ws.capacity - ws.committed)) continue;
      if (pushed_back(wid)) continue;
      const bool probationary = m.reliability_.probationary(wid, now);
      const double score = m.reliability_.score(wid);
      const bool better = !pick || (pick_probationary && !probationary) ||
                          (pick_probationary == probationary &&
                           score > pick_score);
      if (better) {
        pick = wid;
        pick_score = score;
        pick_probationary = probationary;
      }
    }
    return pick;
  }
};

}  // namespace tora::proto

namespace {

using tora::core::ResourceKind;
using tora::core::ResourceVector;
using tora::core::lifecycle::PlacementIndex;
using tora::proto::PlacementTestPeer;
using tora::proto::ProtocolManager;
using tora::sim::Placement;
using tora::sim::Worker;
using tora::sim::WorkerPool;

/// Running attempts summed over the pool's workers.
std::size_t running_attempts(const WorkerPool& pool) {
  std::size_t n = 0;
  for (const auto& [id, w] : pool.workers()) n += w.running_count();
  return n;
}
using tora::util::Rng;

constexpr ResourceVector kCap{16.0, 65536.0, 65536.0, 0.0};
constexpr double kInf = std::numeric_limits<double>::infinity();

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.uniform_int(0, n - 1));
}

/// Heterogeneous capacities: a few fixed profiles and arbitrary doubles.
ResourceVector random_capacity(Rng& rng) {
  static const ResourceVector kProfiles[] = {
      kCap,
      {4.0, 8192.0, 8192.0},
      {32.0, 131072.0, 65536.0},
      {1.0, 1024.0, 2048.0},
  };
  if (rng.bernoulli(0.5)) return kProfiles[pick(rng, 4)];
  return {rng.uniform(0.5, 64.0), rng.uniform(256.0, 262144.0),
          rng.uniform(256.0, 262144.0)};
}

/// An allocation at, or one ulp either side of, `threshold` on one managed
/// dimension, and zero on the others. Never negative.
ResourceVector threshold_alloc(Rng& rng, const ResourceVector& threshold) {
  const ResourceKind k = tora::core::kManagedResources[pick(rng, 3)];
  double a = threshold[k];
  const std::size_t variant = pick(rng, 3);
  if (variant == 1) a = std::nextafter(a, kInf);
  if (variant == 2) a = std::nextafter(a, -kInf);
  ResourceVector alloc;
  alloc[k] = std::max(a, 0.0);
  return alloc;
}

/// A random allocation: fractions of a random capacity, from tiny to more
/// than any worker holds.
ResourceVector random_alloc(Rng& rng) {
  const ResourceVector cap = random_capacity(rng);
  const double scale = rng.bernoulli(0.3) ? rng.uniform(0.0, 0.05)
                                          : rng.uniform(0.0, 1.2);
  ResourceVector alloc;
  for (ResourceKind k : tora::core::kManagedResources) {
    alloc[k] = cap[k] * scale * rng.uniform(0.5, 1.0);
  }
  return alloc;
}

// ------------------------------------------------------ PlacementIndex

std::optional<std::size_t> linear_first_fit(
    const std::vector<ResourceVector>& bounds, const ResourceVector& alloc,
    const std::vector<char>& accept) {
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    if (alloc.fits_within(bounds[i]) && accept[i]) return i;
  }
  return std::nullopt;
}

TEST(PlacementIndex, EmptyIndexRefuses) {
  PlacementIndex index;
  EXPECT_FALSE(index.first_fit(ResourceVector{}, [](std::size_t) {
                      return true;
                    }).has_value());
  index.reset(5);
  EXPECT_FALSE(index.first_fit(ResourceVector{}, [](std::size_t) {
                      return true;
                    }).has_value());
}

TEST(PlacementIndex, RefusesAtTheRootWithoutVisitingLeaves) {
  PlacementIndex index;
  const std::vector<ResourceVector> bounds(100, ResourceVector{4.0, 10.0,
                                                               10.0});
  index.reset(128, bounds);
  std::size_t visits = 0;
  const auto fit = index.first_fit(ResourceVector{5.0, 1.0, 1.0},
                                   [&visits](std::size_t) {
                                     ++visits;
                                     return true;
                                   });
  EXPECT_FALSE(fit.has_value());
  EXPECT_EQ(visits, 0u);
}

TEST(PlacementIndex, FirstFitIsLeftmostAcceptedLeaf) {
  PlacementIndex index;
  index.reset(6);
  index.set(1, ResourceVector{8.0, 100.0, 100.0});
  index.set(3, ResourceVector{16.0, 100.0, 100.0});
  index.set(5, ResourceVector{16.0, 1000.0, 1000.0});
  const ResourceVector alloc{8.0, 50.0, 50.0};
  EXPECT_EQ(index.first_fit(alloc, [](std::size_t) { return true; }), 1u);
  EXPECT_EQ(index.first_fit(alloc, [](std::size_t s) { return s != 1; }),
            3u);
  std::vector<std::size_t> visited;
  index.for_each_fit(alloc, [&](std::size_t s) { visited.push_back(s); });
  EXPECT_EQ(visited, (std::vector<std::size_t>{1, 3, 5}));
  index.set(3, PlacementIndex::kAbsent);
  EXPECT_EQ(index.first_fit(alloc, [](std::size_t s) { return s != 1; }),
            5u);
  EXPECT_FALSE(index.first_fit(ResourceVector{8.0, 500.0, 2000.0},
                               [](std::size_t) { return true; }));
}

TEST(PlacementIndex, RejectsOutOfRangeSlots) {
  PlacementIndex index;
  index.reset(3);
  EXPECT_THROW(index.set(3, kCap), std::out_of_range);
  const std::vector<ResourceVector> bounds(4, kCap);
  EXPECT_THROW(index.reset(3, bounds), std::invalid_argument);
}

TEST(PlacementIndex, MatchesALinearScan) {
  Rng rng(20240611);
  for (int round = 0; round < 200; ++round) {
    const std::size_t slots = 1 + pick(rng, 300);
    std::vector<ResourceVector> bounds(slots, PlacementIndex::kAbsent);
    for (std::size_t i = 0; i < slots; ++i) {
      if (rng.bernoulli(0.8)) bounds[i] = random_capacity(rng);
    }
    PlacementIndex index;
    // Half the rounds build in bulk, half leaf by leaf.
    if (round % 2 == 0) {
      index.reset(slots, bounds);
    } else {
      index.reset(slots);
      for (std::size_t i = 0; i < slots; ++i) index.set(i, bounds[i]);
    }
    for (int q = 0; q < 200; ++q) {
      if (rng.bernoulli(0.2)) {
        const std::size_t s = pick(rng, slots);
        bounds[s] = rng.bernoulli(0.2) ? PlacementIndex::kAbsent
                                       : random_capacity(rng);
        index.set(s, bounds[s]);
      }
      const ResourceVector alloc =
          rng.bernoulli(0.5) ? random_alloc(rng)
                             : threshold_alloc(rng, bounds[pick(rng, slots)]);
      std::vector<char> accept(slots);
      for (char& a : accept) a = rng.bernoulli(0.7) ? 1 : 0;
      const auto got = index.first_fit(
          alloc, [&accept](std::size_t s) { return accept[s] != 0; });
      ASSERT_EQ(got, linear_first_fit(bounds, alloc, accept));
      std::vector<std::size_t> visited;
      index.for_each_fit(alloc,
                         [&visited](std::size_t s) { visited.push_back(s); });
      std::vector<std::size_t> expected;
      for (std::size_t i = 0; i < slots; ++i) {
        if (alloc.fits_within(bounds[i])) expected.push_back(i);
      }
      ASSERT_EQ(visited, expected);
    }
  }
}

// ------------------------------------------------------ the simulator

double slack_after(const Worker& w, const ResourceVector& alloc) {
  double slack = 0.0;
  const ResourceVector free = w.free();
  for (ResourceKind k : tora::core::kManagedResources) {
    if (w.capacity()[k] > 0.0) {
      slack += (free[k] - alloc[k]) / w.capacity()[k];
    }
  }
  return slack;
}

/// WorkerPool::find_worker_for as it was before the placement index: a walk
/// over every alive worker in id order.
std::optional<std::uint64_t> reference_find(
    const WorkerPool& pool, const ResourceVector& alloc, Placement placement,
    std::optional<std::uint64_t> exclude) {
  std::optional<std::uint64_t> best;
  double best_slack = 0.0;
  for (const auto& [id, w] : pool.workers()) {
    if (exclude && id == *exclude) continue;
    if (!w.can_fit(alloc)) continue;
    if (placement == Placement::FirstFit) return id;
    const double slack = slack_after(w, alloc);
    const bool better = placement == Placement::BestFit ? slack < best_slack
                                                        : slack > best_slack;
    if (!best || better) {
      best = id;
      best_slack = slack;
    }
  }
  return best;
}

/// The per-dimension amount at which can_fit flips for worker `w`.
ResourceVector sim_threshold(const Worker& w) {
  ResourceVector t;
  for (ResourceKind k : tora::core::kManagedResources) {
    t[k] = w.capacity()[k] * (1.0 + 1e-9) - w.committed()[k];
  }
  return t;
}

struct Running {
  std::uint64_t worker;
  std::uint64_t task;
  ResourceVector alloc;
};

/// A pool plus the attempts the test started on it.
struct SimModel {
  std::unique_ptr<WorkerPool> pool = std::make_unique<WorkerPool>(kCap);
  std::vector<Running> running;
  std::uint64_t next_task = 0;
  std::size_t queries = 0;

  std::vector<std::uint64_t> alive() const {
    std::vector<std::uint64_t> ids;
    for (const auto& [id, w] : pool->workers()) ids.push_back(id);
    return ids;
  }

  void mutate(Rng& rng) {
    const std::vector<std::uint64_t> ids = alive();
    const double op = rng.uniform01();
    if (ids.empty() || (op < 0.10 && ids.size() < 64)) {
      pool->add_worker(random_capacity(rng));
    } else if (op < 0.18 && ids.size() > 2) {
      const std::uint64_t id = ids[pick(rng, ids.size())];
      pool->remove_worker(id);
      std::erase_if(running, [id](const Running& r) { return r.worker == id; });
    } else if (op < 0.62) {
      const std::uint64_t id = ids[pick(rng, ids.size())];
      const Worker& w = pool->worker(id);
      ResourceVector alloc;
      const double kind = rng.uniform01();
      for (ResourceKind k : tora::core::kManagedResources) {
        const double free = std::max(w.free()[k], 0.0);
        // All of the free space (zero headroom), all of it up to the
        // can_fit threshold, or a random share.
        alloc[k] = kind < 0.1   ? free
                   : kind < 0.2 ? std::max(sim_threshold(w)[k], 0.0)
                                : free * rng.uniform(0.0, 0.6);
      }
      if (!w.can_fit(alloc)) return;
      pool->start(id, next_task, alloc);
      running.push_back({id, next_task++, alloc});
    } else if (!running.empty()) {
      const std::size_t i = pick(rng, running.size());
      const Running r = running[i];
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
      pool->finish(r.worker, r.task, r.alloc);
    }
  }

  ResourceVector query_alloc(Rng& rng,
                             const std::vector<std::uint64_t>& ids) const {
    const double kind = rng.uniform01();
    if (kind < 0.45 && !ids.empty()) {
      return threshold_alloc(
          rng, sim_threshold(pool->worker(ids[pick(rng, ids.size())])));
    }
    if (kind < 0.6 && !running.empty()) {
      return running[pick(rng, running.size())].alloc;
    }
    return random_alloc(rng);
  }

  /// Every placement, with and without an exclusion, against the reference.
  void check(Rng& rng, const WorkerPool& other) {
    const std::vector<std::uint64_t> ids = alive();
    const ResourceVector alloc = query_alloc(rng, ids);
    std::optional<std::uint64_t> exclude;
    if (!ids.empty()) exclude = ids[pick(rng, ids.size())];
    for (Placement p :
         {Placement::FirstFit, Placement::BestFit, Placement::WorstFit}) {
      for (const auto& ex : {std::optional<std::uint64_t>{}, exclude}) {
        const auto expected = reference_find(*pool, alloc, p, ex);
        ASSERT_EQ(pool->find_worker_for(alloc, p, ex), expected);
        ASSERT_EQ(other.find_worker_for(alloc, p, ex), expected);
        ++queries;
      }
    }
  }
};

TEST(PlacementIndexDifferential, WorkerPoolMatchesTheMapWalk) {
  Rng rng(7001);
  SimModel m;
  std::size_t reloads = 0;
  for (int op = 0; op < 100000; ++op) {
    m.mutate(rng);
    m.check(rng, *m.pool);
    if (HasFatalFailure()) return;
    if (op % 5000 == 4999) {
      // Save -> load: the loaded pool answers every next probe the same,
      // then carries the run on (its rebuilt index must stay exact).
      tora::util::ByteWriter w;
      m.pool->save_state(w);
      auto loaded = std::make_unique<WorkerPool>(kCap);
      const std::string bytes = w.take();
      tora::util::ByteReader r(bytes);
      loaded->load_state(r);
      for (int q = 0; q < 200; ++q) m.check(rng, *loaded);
      if (HasFatalFailure()) return;
      ASSERT_EQ(running_attempts(*loaded), running_attempts(*m.pool));
      m.pool = std::move(loaded);
      ++reloads;
    }
    ASSERT_EQ(running_attempts(*m.pool), m.running.size());
  }
  EXPECT_EQ(reloads, 20u);
  EXPECT_GE(m.queries, 600000u);
}

// ------------------------------------------------------ the manager

struct ManagerModel {
  explicit ManagerModel(bool reliability) {
    cfg.resilience.reliability = reliability;
    tora::core::TaskSpec t;
    t.id = 0;
    t.category = "c";
    t.demand = ResourceVector{1.0, 1.0, 1.0};
    t.duration_s = 1.0;
    tasks.push_back(t);
    for (std::size_t i = 0; i < kLinks; ++i) {
      links.push_back(std::make_shared<tora::proto::DuplexLink>());
    }
    manager = fresh();
  }

  std::unique_ptr<ProtocolManager> fresh() {
    allocators.push_back(std::make_unique<tora::core::TaskAllocator>(
        tora::core::make_allocator(tora::core::kMaxSeen, 1)));
    return std::make_unique<ProtocolManager>(tasks, *allocators.back(),
                                             links, cfg);
  }

  void mutate(Rng& rng) {
    ProtocolManager& mgr = *manager;
    const std::vector<std::uint64_t> ids = PlacementTestPeer::registered(mgr);
    const double op = rng.uniform01();
    if (ids.empty() || op < 0.10) {
      const std::uint64_t wid = pick(rng, kLinks);
      if (std::find(ids.begin(), ids.end(), wid) != ids.end()) return;
      PlacementTestPeer::announce(mgr, wid, random_capacity(rng));
    } else if (op < 0.13) {
      // A repeated announcement may raise the capacity; the commitment
      // stays.
      const std::uint64_t wid = ids[pick(rng, ids.size())];
      const ResourceVector cap =
          PlacementTestPeer::free(mgr, wid) + committed_on(wid);
      PlacementTestPeer::announce(mgr, wid, cap * rng.uniform(1.0, 1.5));
    } else if (op < 0.20 && ids.size() > 2) {
      const std::uint64_t wid = ids[pick(rng, ids.size())];
      PlacementTestPeer::remove(mgr, wid);
      std::erase_if(commits, [wid](const auto& c) { return c.first == wid; });
    } else if (op < 0.25) {
      const double share = rng.bernoulli(0.5) ? 0.1 : 0.6;
      for (std::uint64_t wid = 0; wid < kLinks; ++wid) {
        PlacementTestPeer::set_backpressure(mgr, wid, rng.bernoulli(share));
      }
    } else if (op < 0.30) {
      auto& rel = PlacementTestPeer::reliability(mgr);
      const std::uint64_t wid = pick(rng, kLinks);
      const double kind = rng.uniform01();
      if (kind < 0.4) {
        rel.on_offense(wid);
      } else if (kind < 0.7) {
        rel.on_success(wid);
      } else {
        rel.quarantine(wid, static_cast<double>(mgr.ticks()));
      }
      PlacementTestPeer::advance(mgr, pick(rng, 8));
    } else if (op < 0.65) {
      const std::uint64_t wid = ids[pick(rng, ids.size())];
      const ResourceVector free = PlacementTestPeer::free(mgr, wid);
      ResourceVector alloc;
      const bool whole = rng.bernoulli(0.15);  // zero headroom
      for (ResourceKind k : tora::core::kManagedResources) {
        alloc[k] = std::max(free[k], 0.0) * (whole ? 1.0 : rng.uniform(0, 0.6));
      }
      if (!alloc.fits_within(free)) return;
      PlacementTestPeer::commit(mgr, wid, alloc);
      commits.emplace_back(wid, alloc);
    } else if (!commits.empty()) {
      const std::size_t i = pick(rng, commits.size());
      const auto c = commits[i];
      commits.erase(commits.begin() + static_cast<std::ptrdiff_t>(i));
      PlacementTestPeer::release(mgr, c.first, c.second);
    }
  }

  ResourceVector committed_on(std::uint64_t wid) const {
    ResourceVector sum;
    for (const auto& c : commits) {
      if (c.first == wid) sum += c.second;
    }
    return sum;
  }

  /// First-fit or reliability placement, with and without an exclusion,
  /// against the reference; bp_blocked must match too.
  void check(Rng& rng, const ProtocolManager& other) {
    const ProtocolManager& mgr = *manager;
    const std::vector<std::uint64_t> ids = PlacementTestPeer::registered(mgr);
    ResourceVector alloc = random_alloc(rng);
    if (!ids.empty() && rng.bernoulli(0.5)) {
      alloc = threshold_alloc(
          rng, PlacementTestPeer::free(mgr, ids[pick(rng, ids.size())]));
    }
    std::optional<std::uint64_t> exclude;
    if (!ids.empty()) exclude = ids[pick(rng, ids.size())];
    for (const auto& ex : {std::optional<std::uint64_t>{}, exclude}) {
      bool ref_blocked = false;
      const auto expected =
          PlacementTestPeer::reference_place(mgr, alloc, ex, &ref_blocked);
      for (const ProtocolManager* m : {&mgr, &other}) {
        bool blocked = false;
        ASSERT_EQ(PlacementTestPeer::place(*m, alloc, ex, &blocked), expected);
        ASSERT_EQ(blocked, ref_blocked);
      }
      ++queries;
      blocked_seen += ref_blocked ? 1 : 0;
    }
  }

  static constexpr std::size_t kLinks = 80;
  tora::proto::LivenessConfig cfg;
  std::vector<tora::core::TaskSpec> tasks;
  std::vector<tora::proto::DuplexLinkPtr> links;
  std::vector<std::unique_ptr<tora::core::TaskAllocator>> allocators;
  std::unique_ptr<ProtocolManager> manager;
  std::vector<std::pair<std::uint64_t, ResourceVector>> commits;
  std::size_t queries = 0;
  std::size_t blocked_seen = 0;
};

void run_manager_differential(bool reliability, std::uint64_t seed) {
  Rng rng(seed);
  ManagerModel m(reliability);
  for (int op = 0; op < 100000; ++op) {
    m.mutate(rng);
    m.check(rng, *m.manager);
    if (::testing::Test::HasFatalFailure()) return;
    if (op % 4000 == 3999) {
      // Save -> restore: the restored manager answers every next probe the
      // same. The backpressure sample is per tick, not snapshot state.
      auto restored = m.fresh();
      PlacementTestPeer::restore(*restored, m.manager->snapshot_body());
      for (std::uint64_t wid = 0; wid < ManagerModel::kLinks; ++wid) {
        PlacementTestPeer::set_backpressure(*restored, wid, false);
        PlacementTestPeer::set_backpressure(*m.manager, wid, false);
      }
      for (int q = 0; q < 200; ++q) m.check(rng, *restored);
      if (::testing::Test::HasFatalFailure()) return;
      m.manager = std::move(restored);
    }
  }
  EXPECT_GE(m.queries, 200000u);
  EXPECT_GT(m.blocked_seen, 0u);
}

TEST(PlacementIndexDifferential, ManagerFirstFitMatchesTheMapWalk) {
  run_manager_differential(false, 8101);
}

TEST(PlacementIndexDifferential, ManagerReliabilityPlacementMatches) {
  run_manager_differential(true, 8102);
}

}  // namespace
