#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <string_view>
#include <vector>

namespace {

using tora::util::Rng;

TEST(Rng, DeterministicUnderSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform(5.0, 9.0);
    EXPECT_GE(v, 5.0);
    EXPECT_LT(v, 9.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(17);
  std::vector<int> seen(6, 0);
  for (int i = 0; i < 60000; ++i) {
    const auto v = rng.uniform_int(10, 15);
    ASSERT_GE(v, 10u);
    ASSERT_LE(v, 15u);
    ++seen[v - 10];
  }
  // Each of the 6 values should appear roughly 10000 times.
  for (int c : seen) EXPECT_NEAR(c, 10000, 600);
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42u);
}

TEST(Rng, NormalMoments) {
  Rng rng(23);
  const int n = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(10.0, 3.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(Rng, ExponentialMoments) {
  Rng rng(29);
  const int n = 200000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.exponential(0.5);  // mean 2
    ASSERT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(31);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(37);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(41);
  Rng child = parent.split();
  // Child and parent sequences should not coincide.
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent() == child()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, LabeledSplitIsStable) {
  Rng a(43);
  Rng c1 = a.split("alpha");
  Rng c2 = a.split("alpha");
  for (int i = 0; i < 100; ++i) EXPECT_EQ(c1(), c2());
}

TEST(Rng, LabeledSplitsDifferByLabel) {
  Rng a(47);
  Rng c1 = a.split("alpha");
  Rng c2 = a.split("beta");
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (c1() == c2()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, Hash64StableAndDistinct) {
  EXPECT_EQ(tora::util::hash64("abc"), tora::util::hash64("abc"));
  EXPECT_NE(tora::util::hash64("abc"), tora::util::hash64("abd"));
  EXPECT_NE(tora::util::hash64(""), tora::util::hash64("a"));
}

TEST(Rng, Hash64ContinuesAcrossPieces) {
  using tora::util::hash64;
  EXPECT_EQ(hash64("abc"), hash64("abc", tora::util::kHash64Seed));
  EXPECT_EQ(hash64(""), tora::util::kHash64Seed);
  tora::util::Rng rng(77);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string s(rng.uniform_int(0, 64), '\0');
    for (char& c : s) c = static_cast<char>(rng.uniform_int(0, 255));
    const std::size_t cut = rng.uniform_int(0, s.size());
    const std::string_view v(s);
    EXPECT_EQ(hash64(v.substr(cut), hash64(v.substr(0, cut))), hash64(v));
  }
}

TEST(Rng, SplitMix64Advances) {
  std::uint64_t x = 0;
  const auto a = tora::util::splitmix64(x);
  const auto b = tora::util::splitmix64(x);
  EXPECT_NE(a, b);
  EXPECT_NE(x, 0u);
}

TEST(Rng, WorksWithStdShuffle) {
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<int> orig = v;
  Rng rng(53);
  std::shuffle(v.begin(), v.end(), rng);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);  // same multiset
}

}  // namespace
