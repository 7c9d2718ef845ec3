#ifndef FOCUS_SERVE_FG_CHOICE_H_
#define FOCUS_SERVE_FG_CHOICE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "core/functions.h"

namespace focus::serve {

// One of the four deviation functions δ_(f,g) the service answers reads
// under: f in {abs (f_a), scaled (f_s)} x g in {sum, max}. This is the one
// table of their query names (?f=abs|scaled&g=sum|max), their wire codes
// (one byte each, the enumerator values) and their core::DeviationFunction.
// index() is the dense key the read memos store results under.
class FgChoice {
 public:
  enum class F : uint8_t { kAbs = 0, kScaled = 1 };
  enum class G : uint8_t { kSum = 0, kMax = 1 };

  static constexpr int kCount = 4;

  constexpr FgChoice() = default;  // (abs, sum)
  constexpr FgChoice(F f, G g) : f_(f), g_(g) {}

  // The pair named by a request's ?f= and ?g= parameters (an absent one
  // means abs or sum); nullopt on any other name.
  static std::optional<FgChoice> FromParams(
      const std::map<std::string, std::string>& params);
  // The pair a wire frame carries; nullopt on any other byte.
  static std::optional<FgChoice> FromCodes(uint8_t f_code, uint8_t g_code);

  uint8_t f_code() const { return static_cast<uint8_t>(f_); }
  uint8_t g_code() const { return static_cast<uint8_t>(g_); }
  std::string_view f_name() const;
  std::string_view g_name() const;
  // 0 .. kCount-1.
  int index() const { return 2 * f_code() + g_code(); }
  core::AggregateKind aggregate() const;
  core::DeviationFunction function() const;

  bool operator==(const FgChoice&) const = default;

 private:
  F f_ = F::kAbs;
  G g_ = G::kSum;
};

}  // namespace focus::serve

#endif  // FOCUS_SERVE_FG_CHOICE_H_
