// Fuzz target for common::Flags, the hardened --flag parser every CLI
// tool front-ends untrusted command lines through. Input bytes are split
// on newlines into an argv; the parser must never crash, and a parse
// that succeeds must serve typed lookups without crashing either.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"

namespace {

// Flags::Parse prints a diagnostic to stderr on every malformed input —
// silence it once so fuzzing is not I/O-bound.
const bool kStderrSilenced = [] {
  return std::freopen("/dev/null", "w", stderr) != nullptr;
}();

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  (void)kStderrSilenced;
  // Split into at most 64 newline-separated tokens.
  std::vector<std::string> tokens = {"fuzz_flags"};
  std::string current;
  for (size_t i = 0; i < size && tokens.size() < 64; ++i) {
    const char c = static_cast<char>(data[i]);
    if (c == '\n') {
      tokens.push_back(current);
      current.clear();
    } else if (c != '\0') {
      current.push_back(c);
    }
  }
  if (!current.empty()) tokens.push_back(current);

  std::vector<char*> argv;
  argv.reserve(tokens.size());
  for (std::string& token : tokens) argv.push_back(token.data());

  const auto flags = focus::common::Flags::Parse(
      static_cast<int>(argv.size()), argv.data(), 1,
      {"spool", "reference", "minsup", "threads", "once", "queue"});
  if (flags.has_value()) {
    flags->Get("spool", "");
    double minsup = 0.0;
    int threads = 0;
    std::string error;
    focus::common::ReadDoubleFlag(
        *flags, "minsup", 0.01, [](double v) { return v > 0.0 && v <= 1.0; },
        "in (0, 1]", &minsup, &error);
    focus::common::ReadIntFlag(*flags, "threads", 4, 1, &threads, &error);
    flags->Has("once");
  }
  return 0;
}
