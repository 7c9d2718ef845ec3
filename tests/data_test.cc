#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "data/box.h"
#include "data/dataset.h"
#include "data/sampling.h"
#include "data/schema.h"
#include "data/transaction_db.h"
#include "stats/rng.h"

namespace focus::data {
namespace {

Schema TwoAttrSchema() {
  return Schema({Schema::Numeric("x", 0.0, 10.0), Schema::Categorical("c", 4)},
                /*num_classes=*/2);
}

TEST(SchemaTest, BasicAccessors) {
  const Schema schema = TwoAttrSchema();
  EXPECT_EQ(schema.num_attributes(), 2);
  EXPECT_EQ(schema.num_classes(), 2);
  EXPECT_EQ(schema.attribute(0).name, "x");
  EXPECT_EQ(schema.attribute(1).cardinality, 4);
}

TEST(SchemaTest, EqualityComparesStructure) {
  EXPECT_TRUE(TwoAttrSchema() == TwoAttrSchema());
  const Schema other({Schema::Numeric("x", 0.0, 5.0),
                      Schema::Categorical("c", 4)}, 2);
  EXPECT_FALSE(TwoAttrSchema() == other);
}

TEST(SchemaDeathTest, RejectsOversizedCategorical) {
  EXPECT_DEATH(Schema({Schema::Categorical("huge", 65)}, 0), "FOCUS_CHECK");
}

TEST(DatasetTest, AddAndReadRows) {
  Dataset dataset(TwoAttrSchema());
  dataset.AddRow(std::vector<double>{1.5, 2.0}, 0);
  dataset.AddRow(std::vector<double>{3.0, 1.0}, 1);
  ASSERT_EQ(dataset.num_rows(), 2);
  EXPECT_DOUBLE_EQ(dataset.At(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(dataset.At(1, 1), 1.0);
  EXPECT_EQ(dataset.Label(0), 0);
  EXPECT_EQ(dataset.Label(1), 1);
  EXPECT_EQ(dataset.Row(1).size(), 2u);
}

TEST(DatasetTest, AppendConcatenates) {
  Dataset a(TwoAttrSchema());
  a.AddRow(std::vector<double>{1.0, 0.0}, 0);
  Dataset b(TwoAttrSchema());
  b.AddRow(std::vector<double>{2.0, 1.0}, 1);
  a.Append(b);
  ASSERT_EQ(a.num_rows(), 2);
  EXPECT_DOUBLE_EQ(a.At(1, 0), 2.0);
  EXPECT_EQ(a.Label(1), 1);
}

TEST(DatasetDeathTest, RejectsBadLabel) {
  Dataset dataset(TwoAttrSchema());
  EXPECT_DEATH(dataset.AddRow(std::vector<double>{1.0, 0.0}, 5), "FOCUS_CHECK");
}

TEST(DatasetDeathTest, RejectsWrongArity) {
  Dataset dataset(TwoAttrSchema());
  EXPECT_DEATH(dataset.AddRow(std::vector<double>{1.0}, 0), "FOCUS_CHECK");
}

TEST(TransactionDbTest, SortsAndDeduplicates) {
  TransactionDb db(10);
  db.AddTransaction(std::vector<int32_t>{5, 1, 5, 3});
  ASSERT_EQ(db.num_transactions(), 1);
  const auto txn = db.Transaction(0);
  ASSERT_EQ(txn.size(), 3u);
  EXPECT_EQ(txn[0], 1);
  EXPECT_EQ(txn[1], 3);
  EXPECT_EQ(txn[2], 5);

  // Rows that are sorted already, empty, or read from this very database
  // (re-added until its storage has grown several times over).
  db.AddTransaction(std::vector<int32_t>{0, 2, 9});
  db.AddTransaction(std::vector<int32_t>{});
  for (int i = 0; i < 100; ++i) db.AddTransaction(db.Transaction(0));
  ASSERT_EQ(db.num_transactions(), 103);
  const auto sorted = db.Transaction(1);
  EXPECT_EQ(std::vector<int32_t>(sorted.begin(), sorted.end()),
            (std::vector<int32_t>{0, 2, 9}));
  EXPECT_TRUE(db.Transaction(2).empty());
  for (int64_t t = 3; t < db.num_transactions(); ++t) {
    const auto copy = db.Transaction(t);
    EXPECT_EQ(std::vector<int32_t>(copy.begin(), copy.end()),
              (std::vector<int32_t>{1, 3, 5}))
        << "transaction " << t;
  }
}

TEST(TransactionDbTest, AppendPreservesContents) {
  TransactionDb a(5);
  a.AddTransaction(std::vector<int32_t>{0, 1});
  TransactionDb b(5);
  b.AddTransaction(std::vector<int32_t>{2});
  b.AddTransaction(std::vector<int32_t>{3, 4});
  a.Append(b);
  ASSERT_EQ(a.num_transactions(), 3);
  EXPECT_EQ(a.Transaction(2)[1], 4);
}

TEST(TransactionDbDeathTest, RejectsOutOfUniverseItem) {
  TransactionDb db(3);
  EXPECT_DEATH(db.AddTransaction(std::vector<int32_t>{3}), "FOCUS_CHECK");
  EXPECT_DEATH(db.AddTransaction(std::vector<int32_t>{0, 3}), "FOCUS_CHECK");
  EXPECT_DEATH(db.AddTransaction(std::vector<int32_t>{-1, 2}), "FOCUS_CHECK");
  EXPECT_DEATH(db.AddTransaction(std::vector<int32_t>{2, -1}), "FOCUS_CHECK");
}

TEST(SamplingTest, WithoutReplacementSizesAndUniqueness) {
  std::mt19937_64 rng = stats::MakeRng(7);
  const auto indices = SampleIndicesWithoutReplacement(100, 0.3, rng);
  EXPECT_EQ(indices.size(), 30u);
  std::vector<int64_t> sorted = indices;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end());
  EXPECT_GE(sorted.front(), 0);
  EXPECT_LT(sorted.back(), 100);
}

TEST(SamplingTest, FullFractionIsPermutation) {
  std::mt19937_64 rng = stats::MakeRng(7);
  auto indices = SampleIndicesWithoutReplacement(50, 1.0, rng);
  std::sort(indices.begin(), indices.end());
  for (int64_t i = 0; i < 50; ++i) EXPECT_EQ(indices[i], i);
}

TEST(SamplingTest, WithReplacementBounds) {
  std::mt19937_64 rng = stats::MakeRng(7);
  const auto indices = SampleIndicesWithReplacement(10, 1000, rng);
  EXPECT_EQ(indices.size(), 1000u);
  for (int64_t i : indices) {
    EXPECT_GE(i, 0);
    EXPECT_LT(i, 10);
  }
}

TEST(SamplingTest, SampleDatasetIsDeterministicInSeed) {
  Dataset dataset(TwoAttrSchema());
  for (int i = 0; i < 100; ++i) {
    dataset.AddRow(std::vector<double>{static_cast<double>(i), 0.0}, i % 2);
  }
  std::mt19937_64 rng1 = stats::MakeRng(3);
  std::mt19937_64 rng2 = stats::MakeRng(3);
  const Dataset s1 = SampleDataset(dataset, 0.5, rng1);
  const Dataset s2 = SampleDataset(dataset, 0.5, rng2);
  ASSERT_EQ(s1.num_rows(), s2.num_rows());
  for (int64_t i = 0; i < s1.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(s1.At(i, 0), s2.At(i, 0));
  }
}

TEST(SamplingTest, SampleTransactionsFraction) {
  TransactionDb db(4);
  for (int i = 0; i < 40; ++i) db.AddTransaction(std::vector<int32_t>{i % 4});
  std::mt19937_64 rng = stats::MakeRng(11);
  const TransactionDb sample = SampleTransactions(db, 0.25, rng);
  EXPECT_EQ(sample.num_transactions(), 10);
}

// ---- Box ----

TEST(BoxTest, FullBoxContainsEverything) {
  const Schema schema = TwoAttrSchema();
  const Box box = Box::Full(schema);
  EXPECT_FALSE(box.IsEmpty(schema));
  EXPECT_TRUE(box.Contains(schema, std::vector<double>{5.0, 3.0}));
  EXPECT_TRUE(box.Contains(schema, std::vector<double>{-100.0, 0.0}));
}

TEST(BoxTest, NumericClampRestricts) {
  const Schema schema = TwoAttrSchema();
  Box box = Box::Full(schema);
  box.ClampNumeric(0, 2.0, 5.0);
  EXPECT_TRUE(box.Contains(schema, std::vector<double>{2.0, 0.0}));
  EXPECT_TRUE(box.Contains(schema, std::vector<double>{4.99, 0.0}));
  EXPECT_FALSE(box.Contains(schema, std::vector<double>{5.0, 0.0}));
  EXPECT_FALSE(box.Contains(schema, std::vector<double>{1.99, 0.0}));
}

TEST(BoxTest, CategoricalClampRestricts) {
  const Schema schema = TwoAttrSchema();
  Box box = Box::Full(schema);
  box.ClampCategorical(1, 0b0101);  // codes {0, 2}
  EXPECT_TRUE(box.Contains(schema, std::vector<double>{0.0, 0.0}));
  EXPECT_TRUE(box.Contains(schema, std::vector<double>{0.0, 2.0}));
  EXPECT_FALSE(box.Contains(schema, std::vector<double>{0.0, 1.0}));
}

TEST(BoxTest, IntersectionAndEmptiness) {
  const Schema schema = TwoAttrSchema();
  Box a = Box::Full(schema);
  a.ClampNumeric(0, 0.0, 4.0);
  Box b = Box::Full(schema);
  b.ClampNumeric(0, 2.0, 6.0);
  const Box ab = a.Intersect(b);
  EXPECT_FALSE(ab.IsEmpty(schema));
  EXPECT_TRUE(ab.Contains(schema, std::vector<double>{3.0, 0.0}));
  EXPECT_FALSE(ab.Contains(schema, std::vector<double>{1.0, 0.0}));

  Box c = Box::Full(schema);
  c.ClampNumeric(0, 5.0, 9.0);
  EXPECT_TRUE(a.Intersect(c).IsEmpty(schema));

  Box d = Box::Full(schema);
  d.ClampCategorical(1, 0b0001);
  Box e = Box::Full(schema);
  e.ClampCategorical(1, 0b0010);
  EXPECT_TRUE(d.Intersect(e).IsEmpty(schema));
}

TEST(BoxTest, CoversIsContainment) {
  const Schema schema = TwoAttrSchema();
  Box outer = Box::Full(schema);
  outer.ClampNumeric(0, 0.0, 10.0);
  Box inner = Box::Full(schema);
  inner.ClampNumeric(0, 2.0, 5.0);
  EXPECT_TRUE(outer.Covers(schema, inner));
  EXPECT_FALSE(inner.Covers(schema, outer));
  EXPECT_TRUE(Box::Full(schema).Covers(schema, outer));
}

TEST(BoxTest, ToStringMentionsConstraints) {
  const Schema schema = TwoAttrSchema();
  Box box = Box::Full(schema);
  EXPECT_EQ(box.ToString(schema), "<all>");
  box.ClampNumeric(0, 1.0, 2.0);
  box.ClampCategorical(1, 0b0011);
  const std::string text = box.ToString(schema);
  EXPECT_NE(text.find("x in [1,2)"), std::string::npos);
  EXPECT_NE(text.find("c in {0,1}"), std::string::npos);
}

TEST(BoxTest, EqualityIsStructural) {
  const Schema schema = TwoAttrSchema();
  Box a = Box::Full(schema);
  a.ClampNumeric(0, 1.0, 2.0);
  Box b = Box::Full(schema);
  b.ClampNumeric(0, 1.0, 2.0);
  EXPECT_TRUE(a == b);
  b.ClampCategorical(1, 0b1);
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace focus::data
