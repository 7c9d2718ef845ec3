#include "serve/fg_choice.h"

namespace focus::serve {
namespace {

constexpr std::string_view kFNames[] = {"abs", "scaled"};
constexpr std::string_view kGNames[] = {"sum", "max"};

// The code whose name is `name`, or -1.
int CodeOf(const std::string_view (&names)[2], std::string_view name) {
  for (int code = 0; code < 2; ++code) {
    if (names[code] == name) return code;
  }
  return -1;
}

}  // namespace

std::optional<FgChoice> FgChoice::FromParams(
    const std::map<std::string, std::string>& params) {
  int f_code = 0;
  int g_code = 0;
  if (const auto it = params.find("f"); it != params.end()) {
    f_code = CodeOf(kFNames, it->second);
  }
  if (const auto it = params.find("g"); it != params.end()) {
    g_code = CodeOf(kGNames, it->second);
  }
  if (f_code < 0 || g_code < 0) return std::nullopt;
  return FromCodes(static_cast<uint8_t>(f_code), static_cast<uint8_t>(g_code));
}

std::optional<FgChoice> FgChoice::FromCodes(uint8_t f_code, uint8_t g_code) {
  if (f_code > 1 || g_code > 1) return std::nullopt;
  return FgChoice(static_cast<F>(f_code), static_cast<G>(g_code));
}

std::string_view FgChoice::f_name() const { return kFNames[f_code()]; }

std::string_view FgChoice::g_name() const { return kGNames[g_code()]; }

core::AggregateKind FgChoice::aggregate() const {
  return g_ == G::kSum ? core::AggregateKind::kSum : core::AggregateKind::kMax;
}

core::DeviationFunction FgChoice::function() const {
  core::DeviationFunction fn;
  fn.f = f_ == F::kAbs ? core::AbsoluteDiff() : core::ScaledDiff();
  fn.g = aggregate();
  return fn;
}

}  // namespace focus::serve
