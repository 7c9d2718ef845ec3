#include "io/data_io.h"

#include <charconv>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <span>
#include <sstream>
#include <string_view>
#include <vector>

#include "io/model_io.h"

namespace focus::io {
namespace {

constexpr char kTxnsMagic[] = "focus-txns-v1";
constexpr char kDataMagic[] = "focus-data-v1";

bool NextLine(std::istream& in, std::istringstream* line) {
  std::string text;
  if (!std::getline(in, text)) return false;
  line->clear();
  line->str(text);
  return true;
}

// True when only whitespace remains after successful extractions.
bool OnlyWhitespaceLeft(std::istringstream& line) {
  line >> std::ws;
  return line.eof() || line.peek() == std::char_traits<char>::eof();
}

// After the payload, any remaining non-whitespace in the stream means the
// file was not a single well-formed record (e.g. extra rows beyond the
// declared count). The daemon ingests untrusted spool files, so this is
// rejected rather than silently ignored.
bool OnlyWhitespaceLeftInStream(std::istream& in) {
  in >> std::ws;
  return in.eof() || in.peek() == std::char_traits<char>::eof();
}

// Records the rejection reason (if the caller asked for one) and yields
// the nullopt that every malformed-input path returns.
std::nullopt_t Reject(std::string* error, std::string why) {
  if (error != nullptr) *error = std::move(why);
  return std::nullopt;
}

// The characters operator>> skips as whitespace in the classic locale.
bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

std::string_view SkipSpace(std::string_view text) {
  size_t i = 0;
  while (i < text.size() && IsSpace(text[i])) ++i;
  return text.substr(i);
}

enum class IntRead { kOk, kNotANumber, kOutOfRange };

// Reads one decimal integer off the front of `*text` as operator>> reads
// it: leading whitespace, an optional '+' or '-', then every digit that
// follows. `*text` is left just past the digits. kOutOfRange when the
// signed value does not fit in T.
template <typename T>
IntRead ReadInt(std::string_view* text, T* value) {
  std::string_view rest = SkipSpace(*text);
  const bool negative = !rest.empty() && rest[0] == '-';
  if (!rest.empty() && (rest[0] == '+' || rest[0] == '-')) {
    rest.remove_prefix(1);
  }
  if (rest.empty() || rest[0] < '0' || rest[0] > '9') {
    return IntRead::kNotANumber;
  }
  uint64_t magnitude = 0;
  const auto [end, ec] =
      std::from_chars(rest.data(), rest.data() + rest.size(), magnitude);
  text->remove_prefix(static_cast<size_t>(end - text->data()));
  const uint64_t limit = static_cast<uint64_t>(std::numeric_limits<T>::max()) +
                         (negative ? 1 : 0);
  if (ec == std::errc::result_out_of_range || magnitude > limit) {
    return IntRead::kOutOfRange;
  }
  // Two's-complement negation, well defined on the unsigned value.
  *value = static_cast<T>(negative ? 0 - magnitude : magnitude);
  return IntRead::kOk;
}

// The lines of an in-memory text, split as std::getline splits a stream:
// at every '\n', plus a last line without one; none once all is consumed.
class ViewLines {
 public:
  explicit ViewLines(std::string_view text) : rest_(text) {}

  bool Next(std::string_view* line) {
    if (rest_.empty()) return false;
    const void* newline = std::memchr(rest_.data(), '\n', rest_.size());
    const size_t length =
        newline == nullptr
            ? rest_.size()
            : static_cast<size_t>(static_cast<const char*>(newline) -
                                  rest_.data());
    *line = rest_.substr(0, length);
    rest_.remove_prefix(newline == nullptr ? length : length + 1);
    return true;
  }

  bool OnlyWhitespaceLeft() const { return SkipSpace(rest_).empty(); }

 private:
  std::string_view rest_;
};

// The lines of a stream, read with std::getline into one reused buffer,
// so the converter can stream a text larger than memory.
class StreamLines {
 public:
  explicit StreamLines(std::istream& in) : in_(in) {}

  // `*line` is valid until the next call.
  bool Next(std::string_view* line) {
    if (!std::getline(in_, buffer_)) return false;
    *line = buffer_;
    return true;
  }

  bool OnlyWhitespaceLeft() { return OnlyWhitespaceLeftInStream(in_); }

 private:
  std::istream& in_;
  std::string buffer_;
};

std::string Where(int64_t transaction) {
  return "transaction " + std::to_string(transaction);
}

// The focus-txns-v1 parse behind both LoadTransactionDb overloads and the
// streaming block converter, so all three enforce identical strictness.
// `lines` is a ViewLines or a StreamLines. `start` runs once with the
// validated header counts (before any row); `row` runs once per
// transaction with range-checked item ids. Returns the rejection reason,
// or nullopt on success.
template <typename Lines, typename Start, typename Row>
std::optional<std::string> ParseTransactionText(Lines& lines,
                                                const Start& start,
                                                const Row& row) {
  std::string_view line;
  if (!lines.Next(&line)) return "empty file";
  // The magic is the line's first word; more words may follow it.
  const std::string_view word = SkipSpace(line);
  size_t word_length = 0;
  while (word_length < word.size() && !IsSpace(word[word_length])) {
    ++word_length;
  }
  if (word.substr(0, word_length) != kTxnsMagic) {
    return "bad magic (want " + std::string(kTxnsMagic) + ")";
  }

  if (!lines.Next(&line)) return "missing header line";
  int32_t num_items = 0;
  int64_t num_transactions = 0;
  // Counts that fail to parse (including integer overflow) or are out of
  // range reject the file.
  if (ReadInt(&line, &num_items) != IntRead::kOk ||
      ReadInt(&line, &num_transactions) != IntRead::kOk) {
    return "unparseable header counts";
  }
  if (num_items <= 0 || num_transactions < 0) {
    return "header counts out of range";
  }
  if (!SkipSpace(line).empty()) return "trailing garbage after header";

  start(num_items, num_transactions);
  std::vector<int32_t> items;
  for (int64_t t = 0; t < num_transactions; ++t) {
    if (!lines.Next(&line)) return "truncated: missing " + Where(t);
    items.clear();
    for (line = SkipSpace(line); !line.empty(); line = SkipSpace(line)) {
      int32_t item = 0;
      const IntRead read = ReadInt(&line, &item);
      if (read == IntRead::kNotANumber) {
        return Where(t) + ": non-numeric token";
      }
      if (read == IntRead::kOutOfRange || item < 0 || item >= num_items) {
        return Where(t) + ": item id out of range";
      }
      items.push_back(item);
    }
    row(std::span<const int32_t>(items));
  }
  if (!lines.OnlyWhitespaceLeft()) {
    return "trailing content after declared transactions";
  }
  return std::nullopt;
}

// LoadTransactionDb over either line source.
template <typename Lines>
std::optional<data::TransactionDb> LoadTransactionLines(Lines& lines,
                                                        std::string* error) {
  std::optional<data::TransactionDb> db;
  const std::optional<std::string> why = ParseTransactionText(
      lines,
      [&db](int32_t num_items, int64_t /*num_transactions*/) {
        db.emplace(num_items);
      },
      [&db](std::span<const int32_t> items) { db->AddTransaction(items); });
  if (why.has_value()) return Reject(error, *why);
  return db;
}

}  // namespace

void SaveTransactionDb(const data::TransactionDb& db, std::ostream& out) {
  out << kTxnsMagic << '\n';
  out << db.num_items() << ' ' << db.num_transactions() << '\n';
  for (int64_t t = 0; t < db.num_transactions(); ++t) {
    const auto txn = db.Transaction(t);
    for (size_t i = 0; i < txn.size(); ++i) {
      out << (i == 0 ? "" : " ") << txn[i];
    }
    out << '\n';
  }
}

std::optional<data::TransactionDb> LoadTransactionDb(std::istream& in,
                                                     std::string* error) {
  StreamLines lines(in);
  return LoadTransactionLines(lines, error);
}

std::optional<data::TransactionDb> LoadTransactionDb(std::string_view text,
                                                     std::string* error) {
  ViewLines lines(text);
  return LoadTransactionLines(lines, error);
}

bool ConvertTransactionTextToBlocks(std::istream& in, std::ostream& out,
                                    int64_t block_size, std::string* error) {
  std::optional<data::BlockTransactionDbWriter> writer;
  StreamLines lines(in);
  const std::optional<std::string> why = ParseTransactionText(
      lines,
      [&](int32_t num_items, int64_t /*num_transactions*/) {
        writer.emplace(out, num_items, block_size);
      },
      [&](std::span<const int32_t> items) { writer->Add(items); });
  if (why.has_value()) {
    if (error != nullptr) *error = *why;
    return false;
  }
  writer->Finish();
  if (!out) {
    if (error != nullptr) *error = "write failure";
    return false;
  }
  return true;
}

void SaveDataset(const data::Dataset& dataset, std::ostream& out) {
  out << kDataMagic << '\n';
  SaveSchema(dataset.schema(), out);
  out << std::setprecision(17);
  out << dataset.num_rows() << '\n';
  for (int64_t row = 0; row < dataset.num_rows(); ++row) {
    out << dataset.Label(row);
    for (double value : dataset.Row(row)) out << ' ' << value;
    out << '\n';
  }
}

std::optional<data::Dataset> LoadDataset(std::istream& in,
                                         std::string* error) {
  std::istringstream line;
  if (!NextLine(in, &line)) return Reject(error, "empty file");
  std::string magic;
  line >> magic;
  if (magic != kDataMagic) {
    return Reject(error, "bad magic (want " + std::string(kDataMagic) + ")");
  }

  std::optional<data::Schema> schema = LoadSchema(in);
  if (!schema.has_value()) return Reject(error, "malformed embedded schema");

  if (!NextLine(in, &line)) return Reject(error, "missing row count");
  int64_t num_rows = 0;
  if (!(line >> num_rows) || num_rows < 0) {
    return Reject(error, "unparseable row count");
  }
  if (!OnlyWhitespaceLeft(line)) {
    return Reject(error, "trailing garbage after row count");
  }

  data::Dataset dataset(*schema);
  dataset.Reserve(num_rows);
  std::vector<double> values(schema->num_attributes());
  for (int64_t row = 0; row < num_rows; ++row) {
    const std::string where = "row " + std::to_string(row);
    if (!NextLine(in, &line)) {
      return Reject(error, "truncated: missing " + where);
    }
    int label = 0;
    if (!(line >> label)) return Reject(error, where + ": unparseable label");
    if (schema->num_classes() > 0 &&
        (label < 0 || label >= schema->num_classes())) {
      return Reject(error, where + ": class label out of range");
    }
    for (int a = 0; a < schema->num_attributes(); ++a) {
      if (!(line >> values[a])) {
        return Reject(error, where + ": unparseable attribute value");
      }
    }
    if (!OnlyWhitespaceLeft(line)) {
      return Reject(error, where + ": extra columns");
    }
    dataset.AddRow(values, label);
  }
  if (!OnlyWhitespaceLeftInStream(in)) {
    return Reject(error, "trailing content after declared rows");
  }
  return dataset;
}

bool SaveTransactionDbToFile(const data::TransactionDb& db,
                             const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  SaveTransactionDb(db, out);
  return static_cast<bool>(out);
}

std::optional<data::TransactionDb> LoadTransactionDbFromFile(
    const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) return Reject(error, "cannot open file");
  return LoadTransactionDb(in, error);
}

bool SaveDatasetToFile(const data::Dataset& dataset, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  SaveDataset(dataset, out);
  return static_cast<bool>(out);
}

std::optional<data::Dataset> LoadDatasetFromFile(const std::string& path,
                                                 std::string* error) {
  std::ifstream in(path);
  if (!in) return Reject(error, "cannot open file");
  return LoadDataset(in, error);
}

}  // namespace focus::io
