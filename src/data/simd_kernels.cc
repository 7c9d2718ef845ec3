#include "data/simd_kernels.h"

#include <atomic>
#include <bit>
#include <cstdio>

#include "common/check.h"
#include "common/env.h"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define FOCUS_SIMD_X86 1
#include <immintrin.h>
#else
#define FOCUS_SIMD_X86 0
#endif

namespace focus::data::simd {
namespace {

// Testing override; -1 = none. Relaxed is enough: the sweep tests set it
// from one thread and kernels only read it.
std::atomic<int> g_level_override{-1};

int64_t IntersectPopcountScalar(const uint64_t* const* ptrs, int k,
                                int64_t n) {
  int64_t count = 0;
  for (int64_t i = 0; i < n; ++i) {
    uint64_t word = ptrs[0][i];
    for (int m = 1; m < k; ++m) word &= ptrs[m][i];
    count += std::popcount(word);
  }
  return count;
}

#if FOCUS_SIMD_X86

// Mula's vpshufb popcount: per-byte counts from a nibble LUT, summed into
// per-64-bit-lane totals by SAD against zero. Exact, so every level
// returns the same integers as the scalar loop.
__attribute__((target("avx2"))) inline __m256i Popcount256(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                         _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

__attribute__((target("avx2"))) int64_t IntersectPopcountAvx2(
    const uint64_t* const* ptrs, int k, int64_t n) {
  __m256i totals = _mm256_setzero_si256();
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i acc = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(ptrs[0] + i));
    for (int m = 1; m < k; ++m) {
      acc = _mm256_and_si256(acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                                      ptrs[m] + i)));
    }
    totals = _mm256_add_epi64(totals, Popcount256(acc));
  }
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), totals);
  int64_t count = static_cast<int64_t>(lanes[0] + lanes[1] + lanes[2] + lanes[3]);
  for (; i < n; ++i) {
    uint64_t word = ptrs[0][i];
    for (int m = 1; m < k; ++m) word &= ptrs[m][i];
    count += std::popcount(word);
  }
  return count;
}

// AVX-512BW has vpshufb over 512-bit lanes, so the same LUT popcount
// covers 8 words per step without needing AVX512-VPOPCNTDQ.
__attribute__((target("avx512f,avx512bw"))) inline __m512i Popcount512(
    __m512i v) {
  const __m512i lut = _mm512_broadcast_i32x4(_mm_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4));
  const __m512i low_mask = _mm512_set1_epi8(0x0f);
  const __m512i lo = _mm512_and_si512(v, low_mask);
  const __m512i hi = _mm512_and_si512(_mm512_srli_epi16(v, 4), low_mask);
  const __m512i counts = _mm512_add_epi8(_mm512_shuffle_epi8(lut, lo),
                                         _mm512_shuffle_epi8(lut, hi));
  return _mm512_sad_epu8(counts, _mm512_setzero_si512());
}

__attribute__((target("avx512f,avx512bw"))) int64_t IntersectPopcountAvx512(
    const uint64_t* const* ptrs, int k, int64_t n) {
  __m512i totals = _mm512_setzero_si512();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512i acc = _mm512_loadu_si512(ptrs[0] + i);
    for (int m = 1; m < k; ++m) {
      acc = _mm512_and_si512(acc, _mm512_loadu_si512(ptrs[m] + i));
    }
    totals = _mm512_add_epi64(totals, Popcount512(acc));
  }
  int64_t count = static_cast<int64_t>(_mm512_reduce_add_epi64(totals));
  for (; i < n; ++i) {
    uint64_t word = ptrs[0][i];
    for (int m = 1; m < k; ++m) word &= ptrs[m][i];
    count += std::popcount(word);
  }
  return count;
}

#endif  // FOCUS_SIMD_X86

}  // namespace

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
    case Level::kAvx512:
      return "avx512";
  }
  return "unknown";
}

std::optional<Level> ParseLevel(const std::string& name) {
  if (name == "scalar") return Level::kScalar;
  if (name == "avx2") return Level::kAvx2;
  if (name == "avx512") return Level::kAvx512;
  return std::nullopt;
}

bool LevelSupported(Level level) {
  if (level == Level::kScalar) return true;
#if FOCUS_SIMD_X86
  if (level == Level::kAvx2) return __builtin_cpu_supports("avx2") != 0;
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512bw") != 0;
#else
  return false;
#endif
}

Level DetectLevel() {
  static const Level detected = [] {
    Level best = Level::kScalar;
    if (LevelSupported(Level::kAvx2)) best = Level::kAvx2;
    if (LevelSupported(Level::kAvx512)) best = Level::kAvx512;
    const std::string requested = common::GetEnvString("FOCUS_SIMD", "");
    if (!requested.empty()) {
      const std::optional<Level> parsed = ParseLevel(requested);
      if (!parsed.has_value()) {
        std::fprintf(stderr,
                     "FOCUS_SIMD=%s is not scalar|avx2|avx512; using %s\n",
                     requested.c_str(), LevelName(best));
      } else if (static_cast<int>(*parsed) > static_cast<int>(best)) {
        std::fprintf(stderr,
                     "FOCUS_SIMD=%s unsupported on this CPU; clamping to %s\n",
                     requested.c_str(), LevelName(best));
      } else {
        best = *parsed;
      }
    }
    return best;
  }();
  return detected;
}

Level CurrentLevel() {
  const int override_level = g_level_override.load(std::memory_order_relaxed);
  if (override_level >= 0) return static_cast<Level>(override_level);
  return DetectLevel();
}

ScopedLevelForTesting::ScopedLevelForTesting(Level level)
    : previous_(g_level_override.load(std::memory_order_relaxed)) {
  FOCUS_CHECK(LevelSupported(level))
      << LevelName(level) << " kernels are not runnable on this CPU";
  g_level_override.store(static_cast<int>(level), std::memory_order_relaxed);
}

ScopedLevelForTesting::~ScopedLevelForTesting() {
  g_level_override.store(previous_, std::memory_order_relaxed);
}

int64_t IntersectPopcountWords(const uint64_t* const* ptrs, int k,
                               int64_t n) {
#if FOCUS_SIMD_X86
  switch (CurrentLevel()) {
    case Level::kAvx512:
      return IntersectPopcountAvx512(ptrs, k, n);
    case Level::kAvx2:
      return IntersectPopcountAvx2(ptrs, k, n);
    case Level::kScalar:
      break;
  }
#endif
  return IntersectPopcountScalar(ptrs, k, n);
}

}  // namespace focus::data::simd
