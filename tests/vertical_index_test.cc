// Unit tests for data::VerticalIndex — the per-item TID-bitmap
// representation behind vertical support counting. Edge cases the bitmap
// layout must get right: the empty itemset (whole space), tail-word
// masking when num_transactions is not a multiple of 64, item universes
// that are not a multiple of 64, and absent/empty extremes.

#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "data/transaction_db.h"
#include "data/vertical_index.h"
#include "datagen/quest_gen.h"
#include "itemsets/itemset.h"
#include "itemsets/support_counter.h"

namespace focus::data {
namespace {

TransactionDb TinyDb() {
  // 5 transactions over items {0..4}.
  TransactionDb db(5);
  db.AddTransaction(std::vector<int32_t>{0, 1, 2});
  db.AddTransaction(std::vector<int32_t>{0, 1});
  db.AddTransaction(std::vector<int32_t>{0, 2});
  db.AddTransaction(std::vector<int32_t>{1, 2, 3});
  db.AddTransaction(std::vector<int32_t>{0, 1, 2, 3});
  return db;
}

TEST(VerticalIndexTest, DimensionsAndSingleWordBitmaps) {
  const TransactionDb db = TinyDb();
  const VerticalIndex index(db);
  EXPECT_EQ(index.num_items(), 5);
  EXPECT_EQ(index.num_transactions(), 5);
  EXPECT_EQ(index.num_words(), 1);

  // Item 0 occurs in transactions 0,1,2,4; item 3 in 3,4; item 4 nowhere.
  EXPECT_EQ(index.ItemBits(0)[0], 0b10111ULL);
  EXPECT_EQ(index.ItemBits(3)[0], 0b11000ULL);
  EXPECT_EQ(index.ItemBits(4)[0], 0ULL);
  EXPECT_EQ(index.ItemCount(0), 4);
  EXPECT_EQ(index.ItemCount(3), 2);
  EXPECT_EQ(index.ItemCount(4), 0);
}

TEST(VerticalIndexTest, CountIntersectionMatchesManualEnumeration) {
  const VerticalIndex index(TinyDb());
  const std::vector<int32_t> set01 = {0, 1};
  const std::vector<int32_t> set12 = {1, 2};
  const std::vector<int32_t> set0123 = {0, 1, 2, 3};
  const std::vector<int32_t> with_absent = {0, 4};
  EXPECT_EQ(index.CountIntersection(set01), 3);
  EXPECT_EQ(index.CountIntersection(set12), 3);
  EXPECT_EQ(index.CountIntersection(set0123), 1);
  EXPECT_EQ(index.CountIntersection(with_absent), 0);
}

TEST(VerticalIndexTest, EmptyItemsetCountsEveryTransaction) {
  const VerticalIndex index(TinyDb());
  EXPECT_EQ(index.CountIntersection({}), 5);
}

TEST(VerticalIndexTest, EmptyDatabase) {
  const TransactionDb db(3);
  const VerticalIndex index(db);
  EXPECT_EQ(index.num_transactions(), 0);
  EXPECT_EQ(index.num_words(), 0);
  EXPECT_EQ(index.ItemCount(0), 0);
  EXPECT_EQ(index.CountIntersection({}), 0);
  const std::vector<int32_t> single = {1};
  EXPECT_EQ(index.CountIntersection(single), 0);
}

TEST(VerticalIndexTest, TailWordBitsBeyondLastTransactionAreZero) {
  // 70 transactions → 2 words, 6 live bits in the tail word. Every
  // transaction contains item 0, so a stray tail bit would inflate the
  // count past num_transactions.
  TransactionDb db(2);
  for (int t = 0; t < 70; ++t) {
    db.AddTransaction(std::vector<int32_t>{0});
  }
  const VerticalIndex index(db);
  EXPECT_EQ(index.num_words(), 2);
  EXPECT_EQ(index.ItemBits(0)[0], ~0ULL);
  EXPECT_EQ(index.ItemBits(0)[1], (1ULL << 6) - 1);
  EXPECT_EQ(index.ItemCount(0), 70);
  EXPECT_EQ(index.CountIntersection({}), 70);
}

TEST(VerticalIndexTest, TransactionCountsNotMultipleOf64) {
  // Word boundaries at 63/64/65 transactions: the itemset {0,1} holds in
  // every even transaction; the exact count must survive the tail word.
  for (const int64_t n : {63, 64, 65, 128, 129}) {
    TransactionDb db(2);
    for (int64_t t = 0; t < n; ++t) {
      if (t % 2 == 0) {
        db.AddTransaction(std::vector<int32_t>{0, 1});
      } else {
        db.AddTransaction(std::vector<int32_t>{0});
      }
    }
    const VerticalIndex index(db);
    EXPECT_EQ(index.num_words(), (n + 63) / 64);
    EXPECT_EQ(index.ItemCount(0), n);
    const std::vector<int32_t> both = {0, 1};
    EXPECT_EQ(index.CountIntersection(both), (n + 1) / 2) << "n=" << n;
  }
}

TEST(VerticalIndexTest, ItemUniverseNotMultipleOf64) {
  // 67 items: the last bitmap row must be fully addressable and isolated
  // from its neighbours.
  TransactionDb db(67);
  db.AddTransaction(std::vector<int32_t>{66});
  db.AddTransaction(std::vector<int32_t>{0, 66});
  db.AddTransaction(std::vector<int32_t>{65});
  const VerticalIndex index(db);
  EXPECT_EQ(index.num_items(), 67);
  EXPECT_EQ(index.ItemCount(66), 2);
  EXPECT_EQ(index.ItemCount(65), 1);
  EXPECT_EQ(index.ItemCount(64), 0);
  const std::vector<int32_t> pair = {0, 66};
  EXPECT_EQ(index.CountIntersection(pair), 1);
}

TEST(VerticalIndexTest, MemoryBytesCoversBitmapsAndCounts) {
  const VerticalIndex index(TinyDb());
  // 5 items x 1 word x 8 bytes + 5 cached counts x 8 bytes, at minimum.
  EXPECT_GE(index.MemoryBytes(), 5 * 8 + 5 * 8);
}

TEST(VerticalIndexTest, AgreesWithHorizontalCountingOnGeneratedData) {
  datagen::QuestParams params;
  params.num_transactions = 777;  // deliberately not a multiple of 64
  params.num_items = 50;
  params.num_patterns = 10;
  params.seed = 21;
  const TransactionDb db = datagen::GenerateQuest(params);
  const VerticalIndex index(db);

  const std::vector<lits::Itemset> itemsets = {
      lits::Itemset{},          lits::Itemset({0}),
      lits::Itemset({1, 2}),    lits::Itemset({3, 7, 11}),
      lits::Itemset({49}),      lits::Itemset({0, 1, 2, 3, 4})};
  const lits::SupportCounter counter(itemsets, db.num_items());
  const std::vector<int64_t> horizontal = counter.CountAbsolute(db);
  const std::vector<int64_t> vertical = counter.CountAbsolute(index);
  EXPECT_EQ(vertical, horizontal);

  const std::vector<double> rel_h = counter.CountRelative(db);
  const std::vector<double> rel_v = counter.CountRelative(index);
  EXPECT_EQ(rel_v, rel_h);  // same integers / same n ⇒ identical doubles
}

TEST(VerticalIndexTest, SinglePassBuildMatchesTwoPassReference) {
  // Regression pin for the build-path change: the constructor used to
  // fill the bitmaps in one pass and then popcount them in a SECOND pass
  // to get item_counts_; counting now folds into the fill pass. This
  // reimplements the old two-pass builder and requires the new one to
  // produce identical bitmaps and identical counts on a fixed seed.
  datagen::QuestParams params;
  params.num_transactions = 2000;
  params.num_items = 80;
  params.num_patterns = 15;
  params.seed = 1234;
  const TransactionDb db = datagen::GenerateQuest(params);

  const int64_t words = (db.num_transactions() + 63) / 64;
  std::vector<uint64_t> reference_bits(
      static_cast<size_t>(db.num_items()) * words, 0);
  for (int64_t t = 0; t < db.num_transactions(); ++t) {
    const uint64_t bit = 1ULL << (t & 63);
    const int64_t word = t >> 6;
    for (int32_t item : db.Transaction(t)) {
      reference_bits[static_cast<size_t>(item) * words + word] |= bit;
    }
  }
  std::vector<int64_t> reference_counts(db.num_items(), 0);
  for (int32_t item = 0; item < db.num_items(); ++item) {
    for (int64_t w = 0; w < words; ++w) {
      reference_counts[item] += std::popcount(
          reference_bits[static_cast<size_t>(item) * words + w]);
    }
  }

  const VerticalIndex index(db);
  ASSERT_EQ(index.num_words(), words);
  for (int32_t item = 0; item < db.num_items(); ++item) {
    const auto bits = index.ItemBits(item);
    for (int64_t w = 0; w < words; ++w) {
      ASSERT_EQ(bits[static_cast<size_t>(w)],
                reference_bits[static_cast<size_t>(item) * words + w])
          << "item=" << item << " word=" << w;
    }
    EXPECT_EQ(index.ItemCount(item), reference_counts[item]) << item;
  }
}

}  // namespace
}  // namespace focus::data
