#include "common/flags.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <system_error>

namespace focus::common {
namespace {

// Flag `name`'s value as a T, or `fallback` when the flag is absent;
// nullopt unless the whole value is one number (std::from_chars takes no
// leading space, no '+' and no base prefix, and nothing may follow).
template <typename T>
std::optional<T> ParseNumberFlag(const Flags& flags, const char* name,
                                 T fallback) {
  if (!flags.Has(name)) return fallback;
  const std::string text = flags.Get(name, "");
  const char* const end = text.data() + text.size();
  T value{};
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end) return std::nullopt;
  return value;
}

}  // namespace

std::optional<Flags> Flags::Parse(int argc, char* const* argv, int first,
                                  const std::vector<std::string>& allowed) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0 || token.size() == 2) {
      std::fprintf(stderr, "expected a --flag, got '%s'\n", token.c_str());
      return std::nullopt;
    }
    const std::string key = token.substr(2);
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      std::fprintf(stderr, "unknown flag '--%s'\n", key.c_str());
      return std::nullopt;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag '--%s' is missing its value\n", key.c_str());
      return std::nullopt;
    }
    if (!flags.values_.emplace(key, argv[i + 1]).second) {
      std::fprintf(stderr, "flag '--%s' given twice\n", key.c_str());
      return std::nullopt;
    }
    ++i;  // consume the value
  }
  return flags;
}

std::string Flags::Get(const std::string& key,
                       const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

bool ReadIntFlag(const Flags& flags, const char* name, int64_t fallback,
                 int64_t min, int* out, std::string* error, int max) {
  const std::optional<int64_t> value =
      ParseNumberFlag<int64_t>(flags, name, fallback);
  if (!value.has_value() || *value < min || *value > max) {
    *error = std::string("--") + name + " must be an integer in [" +
             std::to_string(min) + ", " + std::to_string(max) + "], got " +
             flags.Get(name, "");
    return false;
  }
  *out = static_cast<int>(*value);
  return true;
}

bool ReadDoubleFlag(const Flags& flags, const char* name, double fallback,
                    bool (*in_range)(double), const char* range, double* out,
                    std::string* error) {
  const std::optional<double> value =
      ParseNumberFlag<double>(flags, name, fallback);
  if (!value.has_value() || !in_range(*value)) {
    *error = std::string("--") + name + " must be " + range + ", got " +
             flags.Get(name, "");
    return false;
  }
  *out = *value;
  return true;
}

}  // namespace focus::common
