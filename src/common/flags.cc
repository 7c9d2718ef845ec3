#include "common/flags.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace focus::common {

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

double Flags::GetDouble(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : std::atof(it->second.c_str());
}

int64_t Flags::GetInt(const std::string& key, int64_t fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : std::atoll(it->second.c_str());
}

bool ReadIntFlag(const Flags& flags, const char* name, int64_t fallback,
                 int64_t min, int* out, std::string* error) {
  const int64_t value = flags.GetInt(name, fallback);
  if (value < min || value > std::numeric_limits<int>::max()) {
    *error = std::string("--") + name + " must be an integer in [" +
             std::to_string(min) + ", " +
             std::to_string(std::numeric_limits<int>::max()) + "], got " +
             flags.Get(name, "");
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

}  // namespace focus::common
