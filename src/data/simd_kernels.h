#ifndef FOCUS_DATA_SIMD_KERNELS_H_
#define FOCUS_DATA_SIMD_KERNELS_H_

#include <cstdint>
#include <optional>
#include <string>

namespace focus::data::simd {

// The word-level counting kernel behind data::VerticalIndex: the fused
// k-way AND + popcount over 64-bit word streams that gives the support of
// an itemset. It exists at three instruction levels
// selected by a one-time runtime dispatcher, and ALL levels are
// bit-identical by construction — they compute the same integer popcount
// of the same words, so the horizontal == vertical differential laws hold
// at every level. tests/laws/laws_kernel_oracle_test.cc sweeps the full
// (kernel x level x pool) grid to keep that true.
enum class Level : int {
  kScalar = 0,  // std::popcount loop; the portable baseline
  kAvx2 = 1,    // 256-bit AND + vpshufb nibble-LUT popcount (Mula)
  kAvx512 = 2,  // 512-bit AND + the same LUT popcount via AVX-512BW
};

// "scalar" / "avx2" / "avx512".
const char* LevelName(Level level);
std::optional<Level> ParseLevel(const std::string& name);

// True iff the running CPU can execute `level`'s kernels. kScalar is
// always supported; AVX-512 requires F+BW.
bool LevelSupported(Level level);

// The level kernels run at, decided once per process: the best
// CPU-supported level, lowered by FOCUS_SIMD=scalar|avx2|avx512 when the
// environment variable is set (an override the hardware cannot honor is
// clamped down to the best supported level). See docs/TESTING.md.
Level DetectLevel();

// Dispatch point used by the kernels on every call: the scoped testing
// override when one is active, otherwise the cached DetectLevel().
Level CurrentLevel();

// Forces a dispatch level for the current process while in scope — how the
// kernel-oracle tests sweep scalar/avx2/avx512 in one binary without
// re-execing under different FOCUS_SIMD values. The level must be
// supported on this machine (checked). Not for concurrent use from
// multiple threads (tests only).
class ScopedLevelForTesting {
 public:
  explicit ScopedLevelForTesting(Level level);
  ~ScopedLevelForTesting();
  ScopedLevelForTesting(const ScopedLevelForTesting&) = delete;
  ScopedLevelForTesting& operator=(const ScopedLevelForTesting&) = delete;

 private:
  int previous_;
};

// popcount(ptrs[0] & ... & ptrs[k-1]) over n words; k >= 1. The k streams
// advance together so they stay cache-resident for any practical itemset
// size.
int64_t IntersectPopcountWords(const uint64_t* const* ptrs, int k, int64_t n);

}  // namespace focus::data::simd

#endif  // FOCUS_DATA_SIMD_KERNELS_H_
