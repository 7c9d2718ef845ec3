#include "proptest/txns_oracle.h"

#include <algorithm>
#include <istream>
#include <limits>
#include <sstream>
#include <vector>

#include "io/data_io.h"

namespace focus::proptest {
namespace {

constexpr char kTxnsMagic[] = "focus-txns-v1";

bool NextLine(std::istream& in, std::istringstream* line) {
  std::string text;
  if (!std::getline(in, text)) return false;
  line->clear();
  line->str(text);
  return true;
}

bool OnlyWhitespaceLeft(std::istream& in) {
  in >> std::ws;
  return in.eof() || in.peek() == std::char_traits<char>::eof();
}

std::optional<std::string> Parse(std::istream& in, data::TransactionDb* db) {
  std::istringstream line;
  if (!NextLine(in, &line)) return "empty file";
  std::string magic;
  line >> magic;
  if (magic != kTxnsMagic) {
    return "bad magic (want " + std::string(kTxnsMagic) + ")";
  }

  if (!NextLine(in, &line)) return "missing header line";
  int32_t num_items = 0;
  int64_t num_transactions = 0;
  if (!(line >> num_items >> num_transactions)) {
    return "unparseable header counts";
  }
  if (num_items <= 0 || num_transactions < 0) {
    return "header counts out of range";
  }
  if (!OnlyWhitespaceLeft(line)) {
    return "trailing garbage after header";
  }

  *db = data::TransactionDb(num_items);
  std::vector<int32_t> items;
  for (int64_t t = 0; t < num_transactions; ++t) {
    const std::string where = "transaction " + std::to_string(t);
    if (!NextLine(in, &line)) {
      return "truncated: missing " + where;
    }
    items.clear();
    int32_t item = 0;
    // Only whitespace left ends the row cleanly; any other failed
    // extraction is a bad token. On overflow operator>> stores the
    // int32_t limit it passed.
    while (!(line >> std::ws).eof()) {
      if (!(line >> item)) {
        return where + (item == std::numeric_limits<int32_t>::max() ||
                                item == std::numeric_limits<int32_t>::min()
                            ? ": item id out of range"
                            : ": non-numeric token");
      }
      if (item < 0 || item >= num_items) {
        return where + ": item id out of range";
      }
      items.push_back(item);
    }
    db->AddTransaction(items);
  }
  if (!OnlyWhitespaceLeft(in)) {
    return "trailing content after declared transactions";
  }
  return std::nullopt;
}

struct Loaded {
  std::optional<data::TransactionDb> db;
  std::string error;
};

bool SameRows(const data::TransactionDb& x, const data::TransactionDb& y) {
  if (x.num_items() != y.num_items() ||
      x.num_transactions() != y.num_transactions()) {
    return false;
  }
  for (int64_t t = 0; t < x.num_transactions(); ++t) {
    const auto tx = x.Transaction(t);
    const auto ty = y.Transaction(t);
    if (!std::equal(tx.begin(), tx.end(), ty.begin(), ty.end())) return false;
  }
  return true;
}

std::string Describe(const Loaded& loaded) {
  return loaded.db.has_value() ? "accepted" : "rejected (" + loaded.error + ")";
}

}  // namespace

std::optional<data::TransactionDb> ReferenceLoadTransactionDb(
    std::istream& in, std::string* error) {
  data::TransactionDb db;
  const std::optional<std::string> why = Parse(in, &db);
  if (why.has_value()) {
    if (error != nullptr) *error = *why;
    return std::nullopt;
  }
  return db;
}

std::optional<std::string> TxnsLoadersDisagree(std::string_view bytes) {
  Loaded view;
  view.db = io::LoadTransactionDb(bytes, &view.error);
  Loaded stream;
  std::istringstream stream_in{std::string(bytes)};
  stream.db = io::LoadTransactionDb(stream_in, &stream.error);
  Loaded reference;
  std::istringstream reference_in{std::string(bytes)};
  reference.db = ReferenceLoadTransactionDb(reference_in, &reference.error);

  const std::pair<const char*, const Loaded*> others[] = {
      {"string_view loader", &view}, {"stream loader", &stream}};
  for (const auto& [name, other] : others) {
    const bool same =
        other->db.has_value() == reference.db.has_value() &&
        (other->db.has_value() ? SameRows(*other->db, *reference.db)
                               : other->error == reference.error);
    if (!same) {
      return std::string(name) + " " + Describe(*other) +
             ", reference " + Describe(reference);
    }
  }
  return std::nullopt;
}

}  // namespace focus::proptest
