#ifndef FOCUS_PROPTEST_TXNS_ORACLE_H_
#define FOCUS_PROPTEST_TXNS_ORACLE_H_

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "data/transaction_db.h"

namespace focus::proptest {

// Differential oracle for the focus-txns-v1 loader (io/data_io.h), shared
// by tests/laws/diff_roundtrip_test.cc and fuzz/fuzz_txns.cc.

// The istringstream parser: each line copied into an istringstream, each
// item read with operator>> into an int32_t. It keeps two fixes over its
// original form: an id that overflows int32_t is "item id out of range"
// wherever it sits, and a row that ends in a lone '+' or '-' is a
// "non-numeric token" (both used to be dropped silently when they ended a
// row). Test code only; io::LoadTransactionDb is the loader.
std::optional<data::TransactionDb> ReferenceLoadTransactionDb(
    std::istream& in, std::string* error = nullptr);

// Loads `bytes` three ways: io::LoadTransactionDb over a string_view and
// over a stream, and ReferenceLoadTransactionDb. Nullopt when all three
// agree on accepting, on the rejection reason word for word, and on every
// row; otherwise what differs.
std::optional<std::string> TxnsLoadersDisagree(std::string_view bytes);

}  // namespace focus::proptest

#endif  // FOCUS_PROPTEST_TXNS_ORACLE_H_
