// AVX2 vector layer (32 u8 / 16 u16 / 8 u32 lanes per vector) and its fill.
//
// The kernel bodies are util/simd_body.hpp's, instantiated here over Avx2.
// Compiled with -mavx2 for this translation unit only (see CMakeLists.txt);
// the dispatch core calls detail::fill_avx2 strictly after a runtime CPUID
// check, so no AVX2 instruction executes on a CPU without it. On targets
// where the compiler cannot build AVX2 at all, the fallback stub at the
// bottom reports the level unavailable and the tables stay scalar.
//
// Every layer operation is exact integer arithmetic; the comment on each
// one says why it matches the scalar references in simd.cpp bit for bit.
#include <cstdint>

#include "util/simd_detail.hpp"

#if defined(__AVX2__) && defined(__x86_64__)

#include "util/simd_body.hpp"

namespace bncg::simd {
namespace {

template <typename T>
struct Avx2 {
  using vec = __m256i;
  static constexpr u32 kLanes = 32 / sizeof(T);
  /// Compares reach the body as movemask_epi8 bitmasks: one bit per byte,
  /// so a u16 lane owns a bit pair and only its low bit is kept.
  static constexpr int kBitShift = sizeof(T) == 2 ? 1 : 0;
  static constexpr u32 kLaneBits = sizeof(T) == 2 ? 0x55555555u : 0xFFFFFFFFu;

  static vec zero() { return _mm256_setzero_si256(); }
  static vec load(const void* p) { return _mm256_loadu_si256(static_cast<const vec*>(p)); }
  static void store(void* p, vec v) { _mm256_storeu_si256(static_cast<vec*>(p), v); }
  static vec set1(T x) {
    if constexpr (sizeof(T) == 1) {
      return _mm256_set1_epi8(static_cast<char>(x));
    } else if constexpr (sizeof(T) == 2) {
      return _mm256_set1_epi16(static_cast<short>(x));
    } else {
      return _mm256_set1_epi32(static_cast<int>(x));
    }
  }

  static vec min(vec a, vec b) {
    if constexpr (sizeof(T) == 1) {
      return _mm256_min_epu8(a, b);
    } else {
      return _mm256_min_epu16(a, b);
    }
  }
  static vec max(vec a, vec b) {
    if constexpr (sizeof(T) == 1) {
      return _mm256_max_epu8(a, b);
    } else if constexpr (sizeof(T) == 2) {
      return _mm256_max_epu16(a, b);
    } else {
      return _mm256_max_epi32(a, b);
    }
  }
  static vec add(vec a, vec b) {
    if constexpr (sizeof(T) == 1) {
      return _mm256_add_epi8(a, b);
    } else if constexpr (sizeof(T) == 2) {
      return _mm256_add_epi16(a, b);
    } else {
      return _mm256_add_epi32(a, b);
    }
  }
  static vec sub(vec a, vec b) {
    static_assert(sizeof(T) == 4, "only the r1 relief lanes subtract");
    return _mm256_sub_epi32(a, b);
  }
  static vec subs(vec a, vec b) {
    if constexpr (sizeof(T) == 1) {
      return _mm256_subs_epu8(a, b);
    } else {
      return _mm256_subs_epu16(a, b);
    }
  }
  static vec or_(vec a, vec b) { return _mm256_or_si256(a, b); }

  static vec cmpeq(vec a, vec b) {
    if constexpr (sizeof(T) == 1) {
      return _mm256_cmpeq_epi8(a, b);
    } else {
      return _mm256_cmpeq_epi16(a, b);
    }
  }
  static u32 eq(vec a, vec b) {
    return static_cast<u32>(_mm256_movemask_epi8(cmpeq(a, b))) & kLaneBits;
  }
  /// AVX2 has no unsigned compare, so it is synthesized from max:
  /// a ≤ b ⇔ max(a, b) == b; gt is its complement and lt(a, b) = gt(b, a).
  /// scan_min_update's lt(val, min1) thereby reuses the max(min1, val) its
  /// min2 update computes anyway.
  static u32 le(vec a, vec b) { return eq(max(a, b), b); }
  static u32 gt(vec a, vec b) { return ~le(a, b) & kLaneBits; }
  static u32 lt(vec a, vec b) { return gt(b, a); }

  static T hmax(vec v) {
    const __m128i lo = _mm256_castsi256_si128(v);
    const __m128i hi = _mm256_extracti128_si256(v, 1);
    if constexpr (sizeof(T) == 1) {
      return hmax128<T>(_mm_max_epu8(lo, hi));
    } else {
      return hmax128<T>(_mm_max_epu16(lo, hi));
    }
  }
  /// u8 sums via sad_epu8 (exact u64 partial sums), u16 via zero-extended
  /// u32 lanes; sum_total reduces both mod 2^32 like the reference's uint32
  /// accumulator.
  static vec sum_step(vec acc, vec t) {
    const vec z = zero();
    if constexpr (sizeof(T) == 1) {
      return _mm256_add_epi64(acc, _mm256_sad_epu8(t, z));
    } else {
      return _mm256_add_epi32(
          acc, _mm256_add_epi32(_mm256_unpacklo_epi16(t, z), _mm256_unpackhi_epi16(t, z)));
    }
  }
  static u32 sum_total(vec acc) {
    const __m128i lo = _mm256_castsi256_si128(acc);
    const __m128i hi = _mm256_extracti128_si256(acc, 1);
    if constexpr (sizeof(T) == 1) {
      const __m128i s = _mm_add_epi64(lo, hi);
      return static_cast<u32>(static_cast<u64>(_mm_cvtsi128_si64(s)) +
                              static_cast<u64>(_mm_extract_epi64(s, 1)));
    } else {
      __m128i s = _mm_add_epi32(lo, hi);
      s = _mm_add_epi32(s, _mm_srli_si128(s, 8));
      s = _mm_add_epi32(s, _mm_srli_si128(s, 4));
      return static_cast<u32>(_mm_cvtsi128_si32(s));
    }
  }
  /// Lanes with d ≥ lim (max(d, lim) == d) are zeroed before the max, so
  /// they fold as 0 exactly like the reference's ternary.
  static vec max_finite(vec acc, vec d, vec lim) {
    return max(acc, _mm256_andnot_si256(cmpeq(max(d, lim), d), d));
  }

  static vec widen(const T* p) {
    if constexpr (sizeof(T) == 1) {
      return _mm256_cvtepu8_epi32(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
    } else {
      return _mm256_cvtepu16_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
    }
  }
  /// Byte mask of the T lanes whose argmin equals w: the 32-bit compares
  /// are packed down to T width, and the permute undoes packs' per-128-bit
  /// lane interleave.
  static vec match32(const u32* argmin, vec w) {
    const auto m = [&](u32 j) { return _mm256_cmpeq_epi32(load(argmin + 8 * j), w); };
    if constexpr (sizeof(T) == 1) {
      const vec mask = _mm256_packs_epi16(_mm256_packs_epi32(m(0), m(1)),
                                          _mm256_packs_epi32(m(2), m(3)));
      return _mm256_permutevar8x32_epi32(mask, _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7));
    } else {
      return _mm256_permute4x64_epi64(_mm256_packs_epi32(m(0), m(1)), _MM_SHUFFLE(3, 1, 2, 0));
    }
  }
  static vec blend(vec mask, vec a, vec b) { return _mm256_blendv_epi8(a, b, mask); }

  static vec gather(const u64* words, const u32* idx) {
    const __m128i vi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx));
    return _mm256_i32gather_epi64(reinterpret_cast<const long long*>(words), vi, 8);
  }
  static u64 hor(vec v) {
    const __m128i r = _mm_or_si128(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
    return static_cast<u64>(_mm_cvtsi128_si64(r)) | static_cast<u64>(_mm_extract_epi64(r, 1));
  }
};

}  // namespace

namespace detail {

bool fill_avx2(Kernels<u8>& k8, Kernels<u16>& k16, WordKernels& kw) {
  fill_level<Avx2>(k8, k16, kw);
  return true;
}

}  // namespace detail
}  // namespace bncg::simd

#else  // compiler or target without AVX2

namespace bncg::simd::detail {

bool fill_avx2(Kernels<std::uint8_t>&, Kernels<std::uint16_t>&, WordKernels&) { return false; }

}  // namespace bncg::simd::detail

#endif
