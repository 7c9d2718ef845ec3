// Unit tests for data::simd — the dispatched k-way AND popcount kernel.
// The contract under test is exactness: every dispatch level returns the
// same integers as a std::popcount reference loop, on every length
// (vector-width remainders included) and on adversarial word patterns.

#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "data/simd_kernels.h"
#include "stats/rng.h"

namespace focus::data::simd {
namespace {

std::vector<Level> SupportedLevels() {
  std::vector<Level> levels = {Level::kScalar};
  if (LevelSupported(Level::kAvx2)) levels.push_back(Level::kAvx2);
  if (LevelSupported(Level::kAvx512)) levels.push_back(Level::kAvx512);
  return levels;
}

int64_t ReferencePopcount(const std::vector<uint64_t>& words) {
  int64_t count = 0;
  for (uint64_t word : words) count += std::popcount(word);
  return count;
}

TEST(SimdKernelsTest, LevelNamesRoundTripThroughParse) {
  for (Level level : {Level::kScalar, Level::kAvx2, Level::kAvx512}) {
    const auto parsed = ParseLevel(LevelName(level));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_FALSE(ParseLevel("sse2").has_value());
  EXPECT_FALSE(ParseLevel("").has_value());
  EXPECT_FALSE(ParseLevel("AVX2").has_value());  // case-sensitive
}

TEST(SimdKernelsTest, ScalarAlwaysSupportedAndDetectIsSupported) {
  EXPECT_TRUE(LevelSupported(Level::kScalar));
  EXPECT_TRUE(LevelSupported(DetectLevel()));
  EXPECT_EQ(CurrentLevel(), DetectLevel());
}

TEST(SimdKernelsTest, ScopedLevelOverridesAndRestores) {
  const Level before = CurrentLevel();
  {
    ScopedLevelForTesting scoped(Level::kScalar);
    EXPECT_EQ(CurrentLevel(), Level::kScalar);
    {
      // Nested scopes restore the OUTER override, not the detected level.
      ScopedLevelForTesting inner(Level::kScalar);
      EXPECT_EQ(CurrentLevel(), Level::kScalar);
    }
    EXPECT_EQ(CurrentLevel(), Level::kScalar);
  }
  EXPECT_EQ(CurrentLevel(), before);
}

TEST(SimdKernelsTest, PopcountMatchesReferenceAtEveryLevelAndLength) {
  std::mt19937_64 rng = stats::MakeRng(0xC0FFEE);
  // Lengths straddle the 4-word (AVX2) and 8-word (AVX-512) strides so
  // every tail path runs.
  for (const int64_t n : {0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 64, 1000}) {
    std::vector<uint64_t> words(static_cast<size_t>(n));
    for (uint64_t& word : words) word = rng();
    const int64_t expected = ReferencePopcount(words);
    const uint64_t* stream = words.data();
    for (Level level : SupportedLevels()) {
      ScopedLevelForTesting scoped(level);
      EXPECT_EQ(IntersectPopcountWords(&stream, 1, n), expected)
          << "n=" << n << " level=" << LevelName(level);
    }
  }
}

TEST(SimdKernelsTest, AndMatchesReferenceAtEveryLevel) {
  std::mt19937_64 rng = stats::MakeRng(0xBEEF);
  for (const int64_t n : {1, 7, 8, 9, 31, 32, 33, 500}) {
    std::vector<uint64_t> a(static_cast<size_t>(n));
    std::vector<uint64_t> b(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      a[static_cast<size_t>(i)] = rng();
      b[static_cast<size_t>(i)] = rng();
    }
    int64_t expected_and = 0;
    for (int64_t i = 0; i < n; ++i) {
      expected_and += std::popcount(a[static_cast<size_t>(i)] &
                                    b[static_cast<size_t>(i)]);
    }
    const uint64_t* both[] = {a.data(), b.data()};
    for (Level level : SupportedLevels()) {
      ScopedLevelForTesting scoped(level);
      EXPECT_EQ(IntersectPopcountWords(both, 2, n), expected_and)
          << "n=" << n << " level=" << LevelName(level);
    }
  }
}

TEST(SimdKernelsTest, KWayIntersectMatchesReference) {
  std::mt19937_64 rng = stats::MakeRng(0xFACADE);
  constexpr int64_t kWords = 77;  // not a multiple of any vector stride
  for (const int k : {1, 2, 3, 5, 9}) {
    std::vector<std::vector<uint64_t>> streams(
        static_cast<size_t>(k), std::vector<uint64_t>(kWords));
    std::vector<const uint64_t*> ptrs;
    for (auto& stream : streams) {
      for (uint64_t& word : stream) word = rng();
      ptrs.push_back(stream.data());
    }

    int64_t expected = 0;
    for (int64_t i = 0; i < kWords; ++i) {
      uint64_t acc = ~uint64_t{0};
      for (const auto& stream : streams) acc &= stream[static_cast<size_t>(i)];
      expected += std::popcount(acc);
    }
    for (Level level : SupportedLevels()) {
      ScopedLevelForTesting scoped(level);
      EXPECT_EQ(IntersectPopcountWords(ptrs.data(), k, kWords), expected)
          << "k=" << k << " level=" << LevelName(level);
    }
  }
}

TEST(SimdKernelsTest, ExtremeDensityWords) {
  // All-ones and all-zeros are where a miscounted LUT nibble or a double-
  // counted tail shows up most clearly.
  for (const int64_t n : {9, 16, 129}) {
    const std::vector<uint64_t> ones(static_cast<size_t>(n), ~uint64_t{0});
    const std::vector<uint64_t> zeros(static_cast<size_t>(n), 0);
    const uint64_t* ones_zeros[] = {ones.data(), zeros.data()};
    for (Level level : SupportedLevels()) {
      ScopedLevelForTesting scoped(level);
      EXPECT_EQ(IntersectPopcountWords(ones_zeros, 1, n), 64 * n);
      EXPECT_EQ(IntersectPopcountWords(ones_zeros + 1, 1, n), 0);
      EXPECT_EQ(IntersectPopcountWords(ones_zeros, 2, n), 0);
    }
  }
}

}  // namespace
}  // namespace focus::data::simd
