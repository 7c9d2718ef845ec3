// Malformed-input edge cases for the text loaders. The monitoring daemon
// feeds untrusted spool files through LoadTransactionDb, so every bad
// input must come back std::nullopt — never a crash, never a silently
// truncated/padded result.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "data/dataset.h"
#include "data/transaction_db.h"
#include "io/data_io.h"

namespace focus::io {
namespace {

std::optional<data::TransactionDb> LoadTxns(const std::string& text) {
  std::istringstream in(text);
  return LoadTransactionDb(in);
}

std::optional<data::Dataset> LoadData(const std::string& text) {
  std::istringstream in(text);
  return LoadDataset(in);
}

std::string SaveTxns(const data::TransactionDb& db) {
  std::ostringstream out;
  SaveTransactionDb(db, out);
  return out.str();
}

data::TransactionDb TinyDb() {
  data::TransactionDb db(5);
  db.AddTransaction(std::vector<int32_t>{0, 2});
  db.AddTransaction(std::vector<int32_t>{1, 3, 4});
  db.AddTransaction(std::vector<int32_t>{});
  return db;
}

TEST(DataIoEdgeTest, TransactionRoundTripStillWorks) {
  const auto loaded = LoadTxns(SaveTxns(TinyDb()));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_items(), 5);
  EXPECT_EQ(loaded->num_transactions(), 3);
  EXPECT_EQ(loaded->Transaction(1).size(), 3u);
}

TEST(DataIoEdgeTest, TransactionEmptyInputRejected) {
  EXPECT_FALSE(LoadTxns("").has_value());
}

TEST(DataIoEdgeTest, TransactionWrongMagicRejected) {
  EXPECT_FALSE(LoadTxns("focus-data-v1\n5 1\n0\n").has_value());
  EXPECT_FALSE(LoadTxns("garbage\n5 1\n0\n").has_value());
}

TEST(DataIoEdgeTest, TransactionTruncatedHeaderRejected) {
  // Magic but no counts line.
  EXPECT_FALSE(LoadTxns("focus-txns-v1\n").has_value());
  // Counts line missing the transaction count.
  EXPECT_FALSE(LoadTxns("focus-txns-v1\n5\n").has_value());
}

TEST(DataIoEdgeTest, TransactionNonPositiveItemCountRejected) {
  EXPECT_FALSE(LoadTxns("focus-txns-v1\n0 1\n\n").has_value());
  EXPECT_FALSE(LoadTxns("focus-txns-v1\n-5 1\n0\n").has_value());
}

TEST(DataIoEdgeTest, TransactionNegativeTransactionCountRejected) {
  EXPECT_FALSE(LoadTxns("focus-txns-v1\n5 -1\n").has_value());
}

TEST(DataIoEdgeTest, TransactionOverflowingCountRejected) {
  // 2^40 overflows the int32 item count; extraction sets failbit.
  EXPECT_FALSE(LoadTxns("focus-txns-v1\n1099511627776 1\n0\n").has_value());
  EXPECT_FALSE(
      LoadTxns("focus-txns-v1\n5 99999999999999999999999999\n").has_value());
}

TEST(DataIoEdgeTest, TransactionHeaderTrailingGarbageRejected) {
  EXPECT_FALSE(LoadTxns("focus-txns-v1\n5 1 surprise\n0\n").has_value());
}

TEST(DataIoEdgeTest, TransactionFewerLinesThanDeclaredRejected) {
  EXPECT_FALSE(LoadTxns("focus-txns-v1\n5 3\n0 2\n1 3\n").has_value());
}

TEST(DataIoEdgeTest, TransactionItemIdOutOfRangeRejected) {
  // Item id == num_items.
  EXPECT_FALSE(LoadTxns("focus-txns-v1\n5 1\n0 5\n").has_value());
  // Negative item id.
  EXPECT_FALSE(LoadTxns("focus-txns-v1\n5 1\n-1\n").has_value());
}

TEST(DataIoEdgeTest, TransactionNonNumericItemRejected) {
  EXPECT_FALSE(LoadTxns("focus-txns-v1\n5 2\n0 two\n1\n").has_value());
}

TEST(DataIoEdgeTest, TransactionTrailingGarbageAfterPayloadRejected) {
  std::string good = SaveTxns(TinyDb());
  ASSERT_TRUE(LoadTxns(good).has_value());
  EXPECT_FALSE(LoadTxns(good + "4\n").has_value());       // extra transaction
  EXPECT_FALSE(LoadTxns(good + "garbage\n").has_value());  // extra junk
  // Trailing whitespace/newlines remain acceptable.
  EXPECT_TRUE(LoadTxns(good + "\n  \n").has_value());
}

// The reason both LoadTransactionDb overloads give for `text`, checked to
// be the same; empty when both accept it.
std::string RejectionReason(const std::string& text) {
  std::string view_error;
  const bool view_ok = LoadTransactionDb(std::string_view(text), &view_error)
                           .has_value();
  std::istringstream in(text);
  std::string stream_error;
  const bool stream_ok = LoadTransactionDb(in, &stream_error).has_value();
  EXPECT_EQ(view_ok, stream_ok) << text;
  EXPECT_EQ(view_error, stream_error) << text;
  return view_ok ? std::string() : view_error;
}

// The rows both overloads load from `text`, which they must accept.
std::vector<std::vector<int32_t>> Rows(const std::string& text) {
  EXPECT_EQ(RejectionReason(text), "") << text;
  std::vector<std::vector<int32_t>> rows;
  const auto db = LoadTransactionDb(std::string_view(text));
  if (!db.has_value()) return rows;
  for (int64_t t = 0; t < db->num_transactions(); ++t) {
    const auto txn = db->Transaction(t);
    rows.emplace_back(txn.begin(), txn.end());
  }
  return rows;
}

TEST(DataIoEdgeTest, TransactionIdOutsideInt32RejectedWhereverItSits) {
  // Last on its row, alone on a row, first on a row: each used to load
  // as a shorter row or be called a non-numeric token.
  for (const char* row : {"1 99999999999", "4294967297", "99999999999 1",
                          "1 -2147483649", "0 99999999999999999999999"}) {
    EXPECT_EQ(RejectionReason(std::string("focus-txns-v1\n5 2\n0\n") + row +
                              "\n"),
              "transaction 1: item id out of range")
        << row;
  }
}

TEST(DataIoEdgeTest, TransactionRowEndingInALoneSignRejected) {
  for (const char* row : {"1 -", "1 +", "-", "+\r"}) {
    EXPECT_EQ(
        RejectionReason(std::string("focus-txns-v1\n5 1\n") + row + "\n"),
        "transaction 0: non-numeric token")
        << row;
  }
}

TEST(DataIoEdgeTest, TransactionNumbersReadAsOperatorExtractionReadsThem) {
  using RowList = std::vector<std::vector<int32_t>>;
  // One leading '+' per number, also with no space before it; "1-2" is 1
  // then -2, which is out of range.
  EXPECT_EQ(Rows("focus-txns-v1\n+5 +3\n+1 +2\n1+2\n-0 +0\n"),
            (RowList{{1, 2}, {1, 2}, {0}}));
  EXPECT_EQ(RejectionReason("focus-txns-v1\n5 1\n+-1\n"),
            "transaction 0: non-numeric token");
  EXPECT_EQ(RejectionReason("focus-txns-v1\n5 1\n1-2\n"),
            "transaction 0: item id out of range");
  // A number stops at the first non-digit; what follows is checked next.
  EXPECT_EQ(RejectionReason("focus-txns-v1\n5 1\n12abc\n"),
            "transaction 0: item id out of range");
  EXPECT_EQ(RejectionReason("focus-txns-v1\n20 1\n12abc\n"),
            "transaction 0: non-numeric token");
  EXPECT_EQ(RejectionReason("focus-txns-v1\n0x5 1\n"),
            "unparseable header counts");
  EXPECT_EQ(RejectionReason("focus-txns-v1\n5 0x1\n"),
            "trailing garbage after header");
}

TEST(DataIoEdgeTest, TransactionWhitespaceIsTheClassicLocales) {
  using RowList = std::vector<std::vector<int32_t>>;
  // CRLF line endings, and \v and \f between numbers.
  EXPECT_EQ(Rows("focus-txns-v1\r\n5 2\r\n0 1\r\n2\r\n\r\n"),
            (RowList{{0, 1}, {2}}));
  EXPECT_EQ(Rows("focus-txns-v1\n5\v2\f\n0\v1\f\n\f2\t3\v\n"),
            (RowList{{0, 1}, {2, 3}}));
  // The magic is the first word; more words may follow it.
  EXPECT_EQ(Rows("  focus-txns-v1 extra words\n5 1\n4\n"), (RowList{{4}}));
  EXPECT_EQ(RejectionReason("focus-txns-v1x\n5 1\n4\n"),
            "bad magic (want focus-txns-v1)");
  // A missing last newline, and trailing blank lines, are fine.
  EXPECT_EQ(Rows("focus-txns-v1\n5 1\n3"), (RowList{{3}}));
  EXPECT_EQ(Rows("focus-txns-v1\n5 2\n3\n\n"), (RowList{{3}, {}}));
  EXPECT_EQ(RejectionReason("focus-txns-v1\n5 2\n3\n"),
            "truncated: missing transaction 1");
}

data::Dataset TinyDataset() {
  const data::Schema schema(
      {data::Schema::Numeric("x", 0.0, 1.0), data::Schema::Numeric("y", 0.0, 1.0)},
      /*num_classes=*/2);
  data::Dataset dataset(schema);
  dataset.AddRow(std::vector<double>{0.25, 0.5}, 0);
  dataset.AddRow(std::vector<double>{0.75, 0.1}, 1);
  return dataset;
}

std::string SaveData(const data::Dataset& dataset) {
  std::ostringstream out;
  SaveDataset(dataset, out);
  return out.str();
}

TEST(DataIoEdgeTest, DatasetRoundTripStillWorks) {
  const auto loaded = LoadData(SaveData(TinyDataset()));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_rows(), 2);
  EXPECT_EQ(loaded->Label(1), 1);
}

TEST(DataIoEdgeTest, DatasetEmptyAndWrongMagicRejected) {
  EXPECT_FALSE(LoadData("").has_value());
  EXPECT_FALSE(LoadData("focus-txns-v1\n").has_value());
}

TEST(DataIoEdgeTest, DatasetTruncatedAfterSchemaRejected) {
  std::string good = SaveData(TinyDataset());
  // Chop off the last row and the loader must notice the short payload.
  const size_t cut = good.rfind('\n', good.size() - 2);
  EXPECT_FALSE(LoadData(good.substr(0, cut + 1)).has_value());
}

TEST(DataIoEdgeTest, DatasetNegativeRowCountRejected) {
  std::string good = SaveData(TinyDataset());
  const size_t pos = good.find("\n2\n");
  ASSERT_NE(pos, std::string::npos);
  std::string bad = good.substr(0, pos) + "\n-2\n" + good.substr(pos + 3);
  EXPECT_FALSE(LoadData(bad).has_value());
}

TEST(DataIoEdgeTest, DatasetRowCountTrailingGarbageRejected) {
  std::string good = SaveData(TinyDataset());
  const size_t pos = good.find("\n2\n");
  ASSERT_NE(pos, std::string::npos);
  std::string bad = good.substr(0, pos) + "\n2 rows\n" + good.substr(pos + 3);
  EXPECT_FALSE(LoadData(bad).has_value());
}

TEST(DataIoEdgeTest, DatasetLabelOutOfRangeRejected) {
  std::string good = SaveData(TinyDataset());
  // Labels are 0/1 under num_classes=2; a 7 must reject.
  const size_t pos = good.find("\n1 ");
  ASSERT_NE(pos, std::string::npos);
  std::string bad = good;
  bad.replace(pos + 1, 1, "7");
  EXPECT_FALSE(LoadData(bad).has_value());
}

TEST(DataIoEdgeTest, DatasetNonNumericValueRejected) {
  std::string good = SaveData(TinyDataset());
  const size_t pos = good.find("0.25");
  ASSERT_NE(pos, std::string::npos);
  std::string bad = good;
  bad.replace(pos, 4, "oops");
  EXPECT_FALSE(LoadData(bad).has_value());
}

TEST(DataIoEdgeTest, DatasetExtraColumnsRejected) {
  std::string good = SaveData(TinyDataset());
  const size_t line_start = good.find("\n1 ");
  ASSERT_NE(line_start, std::string::npos);
  const size_t line_end = good.find('\n', line_start + 1);
  std::string bad = good;
  bad.insert(line_end, " 9.9");
  EXPECT_FALSE(LoadData(bad).has_value());
}

TEST(DataIoEdgeTest, DatasetTrailingGarbageAfterPayloadRejected) {
  std::string good = SaveData(TinyDataset());
  EXPECT_FALSE(LoadData(good + "0 0.1 0.2\n").has_value());
  EXPECT_TRUE(LoadData(good + "\n\n").has_value());
}

TEST(DataIoEdgeTest, FileLoadersHandleMissingFiles) {
  EXPECT_FALSE(LoadTransactionDbFromFile("/nonexistent/a.txns").has_value());
  EXPECT_FALSE(LoadDatasetFromFile("/nonexistent/a.data").has_value());
}

}  // namespace
}  // namespace focus::io
