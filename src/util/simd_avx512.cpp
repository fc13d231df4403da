// AVX-512 vector layer (64 u8 / 32 u16 / 16 u32 lanes per vector) and its
// fill.
//
// The kernel bodies are util/simd_body.hpp's, instantiated here over
// Avx512. Requires both avx512f (foundation, 512-bit integer ops, 32-bit
// gathers) and avx512bw (byte/word min/max and mask-register compares →
// __mmask64); the runtime CPUID probe in simd.cpp checks the same pair
// before this fill is ever consulted. Compiled with -mavx512f -mavx512bw
// for this translation unit only; everywhere the toolchain can't do that,
// the stub at the bottom reports the level unavailable.
//
// Every layer operation is exact integer arithmetic; the comment on each
// one says why it matches the scalar references in simd.cpp bit for bit.
#include <cstdint>

#include "util/simd_detail.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__x86_64__)

#include <type_traits>

#include "util/simd_body.hpp"

namespace bncg::simd {
namespace {

template <typename T>
struct Avx512 {
  using vec = __m512i;
  static constexpr u32 kLanes = 64 / sizeof(T);
  /// Compares yield mask registers, one bit per lane.
  static constexpr int kBitShift = 0;

  static vec zero() { return _mm512_setzero_si512(); }
  static vec load(const void* p) { return _mm512_loadu_si512(p); }
  static void store(void* p, vec v) { _mm512_storeu_si512(p, v); }
  static vec set1(T x) {
    if constexpr (sizeof(T) == 1) {
      return _mm512_set1_epi8(static_cast<char>(x));
    } else if constexpr (sizeof(T) == 2) {
      return _mm512_set1_epi16(static_cast<short>(x));
    } else {
      return _mm512_set1_epi32(static_cast<int>(x));
    }
  }

  static vec min(vec a, vec b) {
    if constexpr (sizeof(T) == 1) {
      return _mm512_min_epu8(a, b);
    } else {
      return _mm512_min_epu16(a, b);
    }
  }
  static vec max(vec a, vec b) {
    if constexpr (sizeof(T) == 1) {
      return _mm512_max_epu8(a, b);
    } else if constexpr (sizeof(T) == 2) {
      return _mm512_max_epu16(a, b);
    } else {
      return _mm512_max_epi32(a, b);
    }
  }
  static vec add(vec a, vec b) {
    if constexpr (sizeof(T) == 1) {
      return _mm512_add_epi8(a, b);
    } else if constexpr (sizeof(T) == 2) {
      return _mm512_add_epi16(a, b);
    } else {
      return _mm512_add_epi32(a, b);
    }
  }
  static vec sub(vec a, vec b) {
    static_assert(sizeof(T) == 4, "only the r1 relief lanes subtract");
    return _mm512_sub_epi32(a, b);
  }
  static vec subs(vec a, vec b) {
    if constexpr (sizeof(T) == 1) {
      return _mm512_subs_epu8(a, b);
    } else {
      return _mm512_subs_epu16(a, b);
    }
  }
  static vec or_(vec a, vec b) { return _mm512_or_si512(a, b); }

  /// Unsigned compares exist directly as predicates (_MM_CMPINT_EQ/LT/LE/
  /// NLE), so no min/max synthesis is needed.
  template <int kPred>
  static auto cmp(vec a, vec b) {
    if constexpr (sizeof(T) == 1) {
      return _mm512_cmp_epu8_mask(a, b, kPred);
    } else {
      return _mm512_cmp_epu16_mask(a, b, kPred);
    }
  }
  static auto eq(vec a, vec b) { return cmp<_MM_CMPINT_EQ>(a, b); }
  static auto le(vec a, vec b) { return cmp<_MM_CMPINT_LE>(a, b); }
  static auto lt(vec a, vec b) { return cmp<_MM_CMPINT_LT>(a, b); }
  static auto gt(vec a, vec b) { return cmp<_MM_CMPINT_NLE>(a, b); }

  static T hmax(vec v) {
    const __m256i lo = _mm512_castsi512_si256(v);
    const __m256i hi = _mm512_extracti64x4_epi64(v, 1);
    if constexpr (sizeof(T) == 1) {
      const __m256i a = _mm256_max_epu8(lo, hi);
      return hmax128<T>(_mm_max_epu8(_mm256_castsi256_si128(a), _mm256_extracti128_si256(a, 1)));
    } else {
      const __m256i a = _mm256_max_epu16(lo, hi);
      return hmax128<T>(_mm_max_epu16(_mm256_castsi256_si128(a), _mm256_extracti128_si256(a, 1)));
    }
  }
  /// u8 sums via sad_epu8 (exact u64 partial sums), u16 via zero-extended
  /// u32 lanes; sum_total reduces both mod 2^32 like the reference's uint32
  /// accumulator.
  static vec sum_step(vec acc, vec t) {
    const vec z = zero();
    if constexpr (sizeof(T) == 1) {
      return _mm512_add_epi64(acc, _mm512_sad_epu8(t, z));
    } else {
      return _mm512_add_epi32(
          acc, _mm512_add_epi32(_mm512_unpacklo_epi16(t, z), _mm512_unpackhi_epi16(t, z)));
    }
  }
  static u32 sum_total(vec acc) {
    if constexpr (sizeof(T) == 1) {
      return static_cast<u32>(_mm512_reduce_add_epi64(acc));
    } else {
      return static_cast<u32>(_mm512_reduce_add_epi32(acc));
    }
  }
  /// Masked max: lanes with d ≥ lim keep acc, exactly the reference's
  /// ternary folding them as 0 (acc ≥ 0).
  static vec max_finite(vec acc, vec d, vec lim) {
    if constexpr (sizeof(T) == 1) {
      return _mm512_mask_max_epu8(acc, lt(d, lim), acc, d);
    } else {
      return _mm512_mask_max_epu16(acc, lt(d, lim), acc, d);
    }
  }

  static vec widen(const T* p) {
    if constexpr (sizeof(T) == 1) {
      return _mm512_cvtepu8_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
    } else {
      return _mm512_cvtepu16_epi32(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
    }
  }
  /// Lane mask of the T lanes whose argmin equals w: one 16-lane 32-bit
  /// compare per 16 lanes, concatenated.
  static auto match32(const u32* argmin, vec w) {
    using Mask = std::conditional_t<sizeof(T) == 1, __mmask64, __mmask32>;
    Mask mask = 0;
    for (u32 j = 0; j < kLanes / 16; ++j) {
      mask |= static_cast<Mask>(_mm512_cmpeq_epi32_mask(load(argmin + 16 * j), w)) << (16 * j);
    }
    return mask;
  }
  template <typename Mask>
  static vec blend(Mask mask, vec a, vec b) {
    if constexpr (sizeof(T) == 1) {
      return _mm512_mask_blend_epi8(mask, a, b);
    } else {
      return _mm512_mask_blend_epi16(mask, a, b);
    }
  }

  static vec gather(const u64* words, const u32* idx) {
    return _mm512_i32gather_epi64(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx)),
                                  words, 8);
  }
  static u64 hor(vec v) { return static_cast<u64>(_mm512_reduce_or_epi64(v)); }
};

}  // namespace

namespace detail {

bool fill_avx512(Kernels<u8>& k8, Kernels<u16>& k16, WordKernels& kw) {
  fill_level<Avx512>(k8, k16, kw);
  return true;
}

}  // namespace detail
}  // namespace bncg::simd

#else  // toolchain or target without AVX-512 F+BW

namespace bncg::simd::detail {

bool fill_avx512(Kernels<std::uint8_t>&, Kernels<std::uint16_t>&, WordKernels&) { return false; }

}  // namespace bncg::simd::detail

#endif
