#ifndef FOCUS_COMMON_FLAGS_H_
#define FOCUS_COMMON_FLAGS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace focus::common {

// Hardened `--flag value` parser shared by the CLI tools (focus_cli,
// focus_served). Every flag takes exactly one value. Malformed command
// lines are rejected with a diagnostic on stderr rather than silently
// ignored:
//   * a token that is not a --flag where one is expected,
//   * a trailing flag with no value,
//   * a flag not in the command's allowed list,
//   * the same flag given twice.
class Flags {
 public:
  // Parses argv[first..argc). `allowed` lists the flag names the command
  // accepts (without the leading "--"). Returns nullopt after printing a
  // diagnostic if the command line is malformed; callers should exit with
  // status 1.
  static std::optional<Flags> Parse(int argc, char* const* argv, int first,
                                    const std::vector<std::string>& allowed);

  // The raw value; numbers go through ReadIntFlag and ReadDoubleFlag.
  std::string Get(const std::string& key, const std::string& fallback) const;
  bool Has(const std::string& key) const { return values_.count(key) > 0; }

 private:
  Flags() = default;

  std::map<std::string, std::string> values_;
};

// Reads integer flag `name` (`fallback` when absent) into `*out`. False,
// with `*error` naming the flag and its range, when the value is not
// entirely an integer ("10s", "4x", "0x1f") or lies outside [min, max].
bool ReadIntFlag(const Flags& flags, const char* name, int64_t fallback,
                 int64_t min, int* out, std::string* error,
                 int max = std::numeric_limits<int>::max());

// Reads double flag `name` (`fallback` when absent) into `*out`. False,
// with `*error` naming the flag and `range`, when the value is not
// entirely a number ("0.05zz") or `in_range` rejects it (NaN included).
bool ReadDoubleFlag(const Flags& flags, const char* name, double fallback,
                    bool (*in_range)(double), const char* range, double* out,
                    std::string* error);

}  // namespace focus::common

#endif  // FOCUS_COMMON_FLAGS_H_
