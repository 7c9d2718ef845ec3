// Fuzz target for the focus-txns-v1 spool parser — the loader that
// focus_served feeds with untrusted bytes, from HTTP bodies and from
// --spool files. Beyond not crashing:
//   * the loader over a string_view, the loader over a stream and the
//     istringstream reference parser (proptest/txns_oracle.h) must agree
//     on accepting, on the rejection reason and on every row;
//   * the parser must be a retraction: anything it ACCEPTS must
//     re-serialize to a form it accepts again, identically (otherwise the
//     daemon's processed/ archive would not round-trip).

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string_view>

#include "io/data_io.h"
#include "proptest/txns_oracle.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  if (const auto differs = focus::proptest::TxnsLoadersDisagree(bytes)) {
    std::fprintf(stderr, "loaders disagree: %s\n", differs->c_str());
    std::abort();
  }
  const auto db = focus::io::LoadTransactionDb(bytes);
  if (!db.has_value()) return 0;

  std::stringstream resaved;
  focus::io::SaveTransactionDb(*db, resaved);
  const auto again = focus::io::LoadTransactionDb(resaved);
  if (!again.has_value()) std::abort();  // accepted input must re-load
  if (again->num_items() != db->num_items() ||
      again->num_transactions() != db->num_transactions()) {
    std::abort();  // accepted input must round-trip stably
  }
  for (int64_t t = 0; t < db->num_transactions(); ++t) {
    const auto a = db->Transaction(t);
    const auto b = again->Transaction(t);
    if (a.size() != b.size()) std::abort();
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i] != b[i]) std::abort();
    }
  }
  return 0;
}
