#include "sim/rng.hpp"

#include <gtest/gtest.h>

#include <concepts>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

namespace facs::sim {
namespace {

static_assert(std::uniform_random_bit_generator<Rng>);
static_assert(Rng::min() == std::mt19937_64::min());
static_assert(Rng::max() == std::mt19937_64::max());
static_assert(Rng::default_seed == std::mt19937_64::default_seed);

// 0 and 2^64 - 1 bound the seed space; the rest mix bit patterns and the
// standard's default seed.
const std::vector<std::uint64_t> kSeeds{
    0,
    1,
    5489,
    0x123456789ABCDEF0ULL,
    0x8000000000000000ULL,
    0x5555555555555555ULL,
    0xDEADBEEFCAFEF00DULL,
    std::numeric_limits<std::uint64_t>::max(),
};

// More than three twists (312 words each).
constexpr int kDraws = 1200;

TEST(Rng, MatchesStdMt19937_64ThroughConstructorAndSeed) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    std::mt19937_64 want{seed};
    Rng constructed{seed};
    Rng reseeded{~seed};
    for (int i = 0; i < 5; ++i) (void)reseeded();  // mid-sequence state
    reseeded.seed(seed);
    for (int i = 0; i < kDraws; ++i) {
      const std::uint64_t w = want();
      ASSERT_EQ(constructed(), w) << "draw " << i;
      ASSERT_EQ(reseeded(), w) << "draw " << i;
    }
  }
}

TEST(Rng, DefaultConstructedMatchesStdDefault) {
  std::mt19937_64 want;
  Rng got;
  for (int i = 0; i < kDraws; ++i) ASSERT_EQ(got(), want()) << "draw " << i;
  // The standard pins the 10000th draw of a default-seeded mt19937_64.
  std::mt19937_64 standard;
  Rng mine;
  for (int i = 1; i < 10000; ++i) {
    (void)standard();
    (void)mine();
  }
  EXPECT_EQ(mine(), 9981545732273789042ULL);
  EXPECT_EQ(standard(), 9981545732273789042ULL);
}

TEST(Rng, MakeRngMatchesStdEngineOnStreamSeed) {
  for (const std::uint64_t seed : kSeeds) {
    for (std::uint64_t stream : {0ULL, 1ULL, 17ULL, 1000003ULL}) {
      SCOPED_TRACE(testing::Message() << seed << "/" << stream);
      std::mt19937_64 want{streamSeed(seed, stream)};
      Rng made = makeRng(seed, stream);
      Rng in_place{seed};
      in_place.seed(streamSeed(seed, stream));
      for (int i = 0; i < kDraws; ++i) {
        const std::uint64_t w = want();
        ASSERT_EQ(made(), w) << "draw " << i;
        ASSERT_EQ(in_place(), w) << "draw " << i;
      }
    }
  }
}

TEST(Rng, StdDistributionsDrawTheSameValues) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    std::mt19937_64 want{seed};
    Rng got{seed};
    std::normal_distribution<double> normal_w{3.0, 2.0}, normal_g{3.0, 2.0};
    std::uniform_real_distribution<double> real_w{-1.0, 4.0},
        real_g{-1.0, 4.0};
    std::exponential_distribution<double> exp_w{0.25}, exp_g{0.25};
    std::uniform_int_distribution<int> int_w{-7, 1000}, int_g{-7, 1000};
    for (int i = 0; i < kDraws; ++i) {
      // Bit-exact: the same engine outputs through the same algorithms.
      ASSERT_EQ(normal_g(got), normal_w(want)) << "draw " << i;
      ASSERT_EQ(real_g(got), real_w(want)) << "draw " << i;
      ASSERT_EQ(exp_g(got), exp_w(want)) << "draw " << i;
      ASSERT_EQ(int_g(got), int_w(want)) << "draw " << i;
    }
    // The helpers construct one distribution per draw.
    for (int i = 0; i < kDraws; ++i) {
      ASSERT_EQ(sampleNormal(got, 1.0, 0.5),
                std::normal_distribution<double>(1.0, 0.5)(want));
      ASSERT_EQ(sampleUniform(got, 2.0, 3.0),
                std::uniform_real_distribution<double>(2.0, 3.0)(want));
      ASSERT_EQ(sampleExponential(got, 4.0),
                std::exponential_distribution<double>(0.25)(want));
    }
  }
}

}  // namespace
}  // namespace facs::sim
