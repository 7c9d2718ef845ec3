// Unit tests for the AND+popcount word loop inside
// data::VerticalIndex::CountIntersection. The contract under test is
// exactness: at every level (itemset size k, up to past the 16-pointer
// stack array) the loop returns the same integers as a std::popcount
// reference, on every length and on adversarial word patterns.

#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "data/transaction_db.h"
#include "data/vertical_index.h"
#include "stats/rng.h"

namespace focus::data {
namespace {

// Itemset sizes to run each count at: 1 (the cached item count), the
// pointer array's edge and one past it.
constexpr int kMaxLevel = 18;

using Rows = std::vector<std::vector<uint64_t>>;

// An index whose item bitmaps are the given words: transaction t holds
// item i iff bit t of rows[i] is set, so every transaction count is a
// multiple of 64.
VerticalIndex IndexOfWords(const Rows& rows, int64_t num_words) {
  TransactionDb db(static_cast<int32_t>(rows.size()));
  std::vector<int32_t> items;
  for (int64_t t = 0; t < 64 * num_words; ++t) {
    items.clear();
    for (size_t i = 0; i < rows.size(); ++i) {
      if ((rows[i][static_cast<size_t>(t / 64)] >> (t % 64)) & 1) {
        items.push_back(static_cast<int32_t>(i));
      }
    }
    db.AddTransaction(items);
  }
  return VerticalIndex(db);
}

// Appends all-ones rows until `rows` holds `total`; ANDing any number of
// them into an itemset leaves its count unchanged.
void PadWithOnes(Rows& rows, size_t total, int64_t num_words) {
  while (rows.size() < total) {
    rows.emplace_back(static_cast<size_t>(num_words), ~uint64_t{0});
  }
}

// The first `count` items, then the all-ones items from `first_ones` up to
// `level` members in all.
std::vector<int32_t> ItemsAtLevel(int32_t count, int32_t first_ones,
                                  int level) {
  std::vector<int32_t> items;
  for (int32_t i = 0; i < count; ++i) items.push_back(i);
  for (int32_t i = first_ones; static_cast<int>(items.size()) < level; ++i) {
    items.push_back(i);
  }
  return items;
}

TEST(SimdKernelsTest, PopcountMatchesReferenceAtEveryLevelAndLength) {
  std::mt19937_64 rng = stats::MakeRng(0xC0FFEE);
  for (const int64_t n : {0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 64, 1000}) {
    Rows rows = {std::vector<uint64_t>(static_cast<size_t>(n))};
    for (uint64_t& word : rows[0]) word = rng();
    PadWithOnes(rows, kMaxLevel, n);
    const VerticalIndex index = IndexOfWords(rows, n);
    ASSERT_EQ(index.num_words(), n);

    int64_t expected = 0;
    for (uint64_t word : rows[0]) expected += std::popcount(word);
    for (int level = 1; level <= kMaxLevel; ++level) {
      EXPECT_EQ(index.CountIntersection(ItemsAtLevel(1, 1, level)), expected)
          << "n=" << n << " level=" << level;
    }
  }
}

TEST(SimdKernelsTest, AndMatchesReferenceAtEveryLevel) {
  std::mt19937_64 rng = stats::MakeRng(0xBEEF);
  for (const int64_t n : {1, 7, 8, 9, 31, 32, 33, 500}) {
    Rows rows(2, std::vector<uint64_t>(static_cast<size_t>(n)));
    for (auto& row : rows) {
      for (uint64_t& word : row) word = rng();
    }
    PadWithOnes(rows, kMaxLevel, n);
    const VerticalIndex index = IndexOfWords(rows, n);

    int64_t expected_and = 0;
    for (int64_t i = 0; i < n; ++i) {
      expected_and += std::popcount(rows[0][static_cast<size_t>(i)] &
                                    rows[1][static_cast<size_t>(i)]);
    }
    for (int level = 2; level <= kMaxLevel; ++level) {
      EXPECT_EQ(index.CountIntersection(ItemsAtLevel(2, 2, level)),
                expected_and)
          << "n=" << n << " level=" << level;
    }
  }
}

TEST(SimdKernelsTest, KWayIntersectMatchesReference) {
  std::mt19937_64 rng = stats::MakeRng(0xFACADE);
  constexpr int64_t kWords = 77;  // odd: any unrolled stride leaves a tail
  for (const int k : {1, 2, 3, 5, 9, 16, 17, 19}) {
    Rows rows(static_cast<size_t>(k),
              std::vector<uint64_t>(static_cast<size_t>(kWords)));
    for (auto& row : rows) {
      // OR two draws per word (density 3/4), so wide intersections stay
      // non-empty.
      for (uint64_t& word : row) word = rng() | rng();
    }
    const VerticalIndex index = IndexOfWords(rows, kWords);

    int64_t expected = 0;
    for (int64_t i = 0; i < kWords; ++i) {
      uint64_t acc = ~uint64_t{0};
      for (const auto& row : rows) acc &= row[static_cast<size_t>(i)];
      expected += std::popcount(acc);
    }
    EXPECT_EQ(index.CountIntersection(ItemsAtLevel(k, k, k)), expected)
        << "k=" << k;
  }
}

TEST(SimdKernelsTest, ExtremeDensityWords) {
  // All-ones and all-zeros are where a double-counted tail or a lost word
  // shows up most clearly. Items: 0 all-ones, 1 all-zeros, 2.. all-ones.
  for (const int64_t n : {9, 16, 129}) {
    Rows rows = {std::vector<uint64_t>(static_cast<size_t>(n), ~uint64_t{0}),
                 std::vector<uint64_t>(static_cast<size_t>(n), 0)};
    PadWithOnes(rows, kMaxLevel + 1, n);
    const VerticalIndex index = IndexOfWords(rows, n);
    EXPECT_EQ(index.CountIntersection(std::vector<int32_t>{0}), 64 * n);
    EXPECT_EQ(index.CountIntersection(std::vector<int32_t>{1}), 0);
    for (int level = 2; level <= kMaxLevel; ++level) {
      EXPECT_EQ(index.CountIntersection(ItemsAtLevel(1, 2, level)), 64 * n)
          << "n=" << n << " level=" << level;
      EXPECT_EQ(index.CountIntersection(ItemsAtLevel(2, 2, level)), 0)
          << "n=" << n << " level=" << level;
    }
  }
}

}  // namespace
}  // namespace focus::data
