// Direct tests of RecordStore's in-place merge.
//
// add() stages records; flush() merges them into the value-sorted run from
// the back and extends the prefix sums from the first slot that changed.
// Whatever the batching, the merged run must equal a stable sort of the
// whole arrival sequence (a staged record lands after every earlier equal
// value), and both prefix arrays must equal a fresh forward recompute bit
// for bit. Significances here are non-integer on purpose: any change in the
// summation order would show in the last bits.

#include "core/record_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/record.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace {

using tora::core::Record;
using tora::core::RecordStore;
using tora::core::SortedRecords;
using tora::util::Rng;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Checks the merged run of `store` (which must have nothing staged)
/// against the stable sort of `arrivals` and a forward prefix recompute.
void expect_matches_arrivals(const RecordStore& store,
                             const std::vector<Record>& arrivals) {
  ASSERT_FALSE(store.has_staged());
  std::vector<Record> want = arrivals;
  std::stable_sort(want.begin(), want.end(),
                   [](const Record& a, const Record& b) {
                     return a.value < b.value;
                   });
  const SortedRecords got = store.sorted();
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.sig_prefix.size(), want.size() + 1);
  ASSERT_EQ(got.vsig_prefix.size(), want.size() + 1);
  double sig = 0.0;
  double vsig = 0.0;
  EXPECT_EQ(bits(got.sig_prefix[0]), bits(0.0));
  EXPECT_EQ(bits(got.vsig_prefix[0]), bits(0.0));
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(bits(got.values[i]), bits(want[i].value)) << "index " << i;
    ASSERT_EQ(bits(got.significances[i]), bits(want[i].significance))
        << "index " << i;
    sig += want[i].significance;
    vsig += want[i].value * want[i].significance;
    ASSERT_EQ(bits(got.sig_prefix[i + 1]), bits(sig)) << "index " << i;
    ASSERT_EQ(bits(got.vsig_prefix[i + 1]), bits(vsig)) << "index " << i;
  }
}

/// Stages `count` records drawn from `draw` into both the store and the
/// arrival log.
template <typename Draw>
void stage(RecordStore& store, std::vector<Record>& arrivals,
           std::size_t count, Draw draw) {
  for (std::size_t i = 0; i < count; ++i) {
    const Record r = draw();
    store.add(r.value, r.significance);
    arrivals.push_back(r);
  }
}

TEST(RecordStore, EmptyStoreFlushIsANoOp) {
  RecordStore store;
  EXPECT_TRUE(store.empty());
  store.flush();
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.sorted().sig_prefix.size(), 1u);
  expect_matches_arrivals(store, {});
}

TEST(RecordStore, OneStagedRecordPerFlush) {
  Rng rng(1);
  RecordStore store;
  std::vector<Record> arrivals;
  for (int round = 0; round < 300; ++round) {
    stage(store, arrivals, 1, [&] {
      return Record{rng.uniform(0.0, 100.0), rng.uniform(0.1, 3.0)};
    });
    EXPECT_EQ(store.staged_count(), 1u);
    store.flush();
    expect_matches_arrivals(store, arrivals);
  }
}

TEST(RecordStore, FewStagedRecordsPerFlush) {
  Rng rng(2);
  RecordStore store;
  std::vector<Record> arrivals;
  for (int round = 0; round < 100; ++round) {
    const auto count = static_cast<std::size_t>(rng.uniform(2.0, 6.0));
    stage(store, arrivals, count, [&] {
      return Record{rng.uniform(0.0, 100.0), rng.uniform(0.1, 3.0)};
    });
    EXPECT_EQ(store.size(), arrivals.size());
    store.flush();
    expect_matches_arrivals(store, arrivals);
  }
}

TEST(RecordStore, MoreStagedThanMerged) {
  Rng rng(3);
  RecordStore store;
  std::vector<Record> arrivals;
  const auto draw = [&] {
    return Record{rng.uniform(0.0, 10.0), rng.uniform(0.1, 3.0)};
  };
  stage(store, arrivals, 3, draw);
  store.flush();
  stage(store, arrivals, 50, draw);
  EXPECT_EQ(store.merged_count(), 3u);
  EXPECT_EQ(store.staged_count(), 50u);
  store.flush();
  expect_matches_arrivals(store, arrivals);
  // A batch far larger than the run, all below its minimum: every merged
  // record moves.
  stage(store, arrivals, 400, [&] {
    return Record{rng.uniform(-20.0, -10.0), rng.uniform(0.1, 3.0)};
  });
  store.flush();
  expect_matches_arrivals(store, arrivals);
}

TEST(RecordStore, BatchesAboveAndBelowTheRun) {
  Rng rng(4);
  RecordStore store;
  std::vector<Record> arrivals;
  stage(store, arrivals, 20, [&] {
    return Record{rng.uniform(40.0, 60.0), rng.uniform(0.1, 3.0)};
  });
  store.flush();
  // Entirely above: nothing merged moves.
  stage(store, arrivals, 5, [&] {
    return Record{rng.uniform(70.0, 80.0), rng.uniform(0.1, 3.0)};
  });
  store.flush();
  expect_matches_arrivals(store, arrivals);
  // Entirely below: everything merged moves.
  stage(store, arrivals, 5, [&] {
    return Record{rng.uniform(0.0, 10.0), rng.uniform(0.1, 3.0)};
  });
  store.flush();
  expect_matches_arrivals(store, arrivals);
}

TEST(RecordStore, AllEqualValuesKeepArrivalOrder) {
  Rng rng(5);
  RecordStore store;
  std::vector<Record> arrivals;
  double sig = 0.5;
  for (int round = 0; round < 40; ++round) {
    const auto count = static_cast<std::size_t>(rng.uniform(1.0, 5.0));
    stage(store, arrivals, count, [&] { return Record{7.0, sig += 0.25}; });
    store.flush();
    expect_matches_arrivals(store, arrivals);
  }
  // The significances are strictly increasing in arrival order, so the
  // sorted run must be too.
  const auto sigs = store.significances();
  EXPECT_TRUE(std::is_sorted(sigs.begin(), sigs.end()));
}

TEST(RecordStore, StagedDuplicatesOfMergedValues) {
  Rng rng(6);
  RecordStore store;
  std::vector<Record> arrivals;
  const double pool[] = {0.0, 1.5, 2.0, 2.0, 8.25, 100.0};
  const auto from_pool = [&] {
    const auto k = static_cast<std::size_t>(rng.uniform(0.0, 6.0));
    return Record{pool[std::min<std::size_t>(k, 5)], rng.uniform(0.1, 3.0)};
  };
  stage(store, arrivals, 12, from_pool);
  store.flush();
  for (int round = 0; round < 60; ++round) {
    const auto count = static_cast<std::size_t>(rng.uniform(1.0, 8.0));
    stage(store, arrivals, count, [&] {
      // Half exact duplicates of an already merged value, half fresh.
      if (rng.uniform01() < 0.5) {
        const auto idx = static_cast<std::size_t>(
            rng.uniform(0.0, static_cast<double>(store.merged_count())));
        return Record{store.values()[std::min(idx, store.merged_count() - 1)],
                      rng.uniform(0.1, 3.0)};
      }
      return from_pool();
    });
    store.flush();
    expect_matches_arrivals(store, arrivals);
  }
}

TEST(RecordStore, RandomBatches) {
  for (std::uint64_t seed : {7u, 8u, 9u}) {
    Rng rng(seed);
    RecordStore store;
    std::vector<Record> arrivals;
    for (int round = 0; round < 80; ++round) {
      const double u = rng.uniform01();
      const std::size_t count =
          u < 0.4   ? 1
          : u < 0.8 ? static_cast<std::size_t>(rng.uniform(2.0, 10.0))
                    : static_cast<std::size_t>(rng.uniform(10.0, 200.0));
      stage(store, arrivals, count, [&] {
        double v = rng.uniform(0.0, 50.0);
        if (!arrivals.empty() && rng.uniform01() < 0.2) {
          v = arrivals[static_cast<std::size_t>(rng.uniform(
                           0.0, static_cast<double>(arrivals.size()))) %
                       arrivals.size()]
                  .value;
        }
        return Record{v, rng.uniform(0.1, 3.0)};
      });
      store.flush();
      expect_matches_arrivals(store, arrivals);
    }
  }
}

TEST(RecordStore, SaveLoadRoundTripAfterMerges) {
  Rng rng(10);
  RecordStore store;
  std::vector<Record> arrivals;
  const auto draw = [&] {
    return Record{rng.uniform(0.0, 30.0), rng.uniform(0.1, 3.0)};
  };
  for (int round = 0; round < 6; ++round) {
    stage(store, arrivals, static_cast<std::size_t>(rng.uniform(1.0, 20.0)),
          draw);
    store.flush();
  }
  stage(store, arrivals, 7, draw);  // leave a staged tail in the snapshot

  tora::util::ByteWriter w;
  store.save(w);
  const std::string bytes = w.take();

  RecordStore loaded;
  tora::util::ByteReader r(bytes);
  loaded.load(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(loaded.merged_count(), store.merged_count());
  EXPECT_EQ(loaded.staged_count(), 7u);

  tora::util::ByteWriter again;
  loaded.save(again);
  EXPECT_EQ(again.take(), bytes);

  // The loaded prefix sums (a full recompute) equal the merged ones, and
  // both stores merge the staged tail identically.
  const SortedRecords a = store.sorted();
  const SortedRecords b = loaded.sorted();
  for (std::size_t i = 0; i <= a.size(); ++i) {
    ASSERT_EQ(bits(a.sig_prefix[i]), bits(b.sig_prefix[i]));
    ASSERT_EQ(bits(a.vsig_prefix[i]), bits(b.vsig_prefix[i]));
  }
  store.flush();
  loaded.flush();
  expect_matches_arrivals(store, arrivals);
  expect_matches_arrivals(loaded, arrivals);
}

}  // namespace
