#ifndef FOCUS_IO_DATA_IO_H_
#define FOCUS_IO_DATA_IO_H_

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "data/block_txn_db.h"
#include "data/dataset.h"
#include "data/transaction_db.h"

namespace focus::io {

// Line-oriented text formats for the data substrates, used by the CLI
// tool and for interchange with external systems.
//
//   transactions v1:  "focus-txns-v1", "<num_items> <num_transactions>",
//                     then one space-separated item list per line.
//   dataset v1:       "focus-data-v1", an embedded schema, the row count,
//                     then "<label> v1 v2 …" per row.
//
// Attribute names must not contain whitespace. Load functions return
// std::nullopt on malformed input and are STRICT: truncated or
// garbage-bearing lines, out-of-range counts/ids, and trailing content
// after the declared payload all reject the file (the monitoring daemon
// ingests untrusted spool files through these loaders). On rejection the
// optional `error` out-param receives a one-line human-readable reason
// (e.g. "transaction 3: item id out of range"), which the daemon logs
// next to the quarantined file.
//
// One focus-txns-v1 parser backs both LoadTransactionDb overloads and
// ConvertTransactionTextToBlocks. It reads each line as a string_view and
// each number with std::from_chars, with operator>>'s rules in the classic
// locale: whitespace is any of " \t\n\v\f\r" (so CRLF files load), a
// number may carry one leading '+' or '-', and the magic may be followed
// by more words. An item id is rejected as out of range wherever it sits,
// also when it does not fit in int32_t.

void SaveTransactionDb(const data::TransactionDb& db, std::ostream& out);
// Reads `in` line by line with std::getline into one reused buffer.
std::optional<data::TransactionDb> LoadTransactionDb(
    std::istream& in, std::string* error = nullptr);
// Parses an in-memory text in place (an HTTP or wire body), with no
// stream and no per-line copy; the same answers and reasons as the
// stream overload.
std::optional<data::TransactionDb> LoadTransactionDb(
    std::string_view text, std::string* error = nullptr);

void SaveDataset(const data::Dataset& dataset, std::ostream& out);
std::optional<data::Dataset> LoadDataset(std::istream& in,
                                         std::string* error = nullptr);

// Streams a `focus-txns-v1` text snapshot into the block codec
// (data/block_txn_db.h) without ever materializing the whole database —
// the monitoring daemon's --ooc spool ingest. Validation is exactly as
// strict as LoadTransactionDb (same rejection reasons on the same
// inputs); on rejection, false + `*error`, and `out` holds a truncated
// block file the caller must discard. The resulting file opens with
// data::BlockTransactionDb and is logically identical to the database
// LoadTransactionDb would have built.
bool ConvertTransactionTextToBlocks(
    std::istream& in, std::ostream& out,
    int64_t block_size = data::BlockStoreOptions{}.block_size,
    std::string* error = nullptr);

bool SaveTransactionDbToFile(const data::TransactionDb& db,
                             const std::string& path);
std::optional<data::TransactionDb> LoadTransactionDbFromFile(
    const std::string& path, std::string* error = nullptr);
bool SaveDatasetToFile(const data::Dataset& dataset, const std::string& path);
std::optional<data::Dataset> LoadDatasetFromFile(const std::string& path,
                                                 std::string* error = nullptr);

}  // namespace focus::io

#endif  // FOCUS_IO_DATA_IO_H_
