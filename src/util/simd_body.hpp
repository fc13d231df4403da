// The vector kernel bodies, written once and instantiated per (ISA, Dist).
//
// Each kernel of simd::Kernels<Dist> / WordKernels is one template below,
// parameterized over a per-ISA vector layer V<T> (T = the lane type:
// uint8_t / uint16_t distances, int32_t / uint32_t relief lanes, uint64_t
// frontier words). The layers live in simd_avx2.cpp (V = Avx2) and
// simd_avx512.cpp (V = Avx512); each TU includes this header and calls
// fill_level<V> once, so every body is compiled under that TU's -m flags.
//
// Everything here sits in an anonymous namespace on purpose: each ISA TU
// gets its own internal-linkage copy, so the linker can never fold an
// AVX-512 instantiation into the AVX2 table (or vice versa). Include this
// header from those two TUs only.
//
// A layer V<T> provides, with W = V<Dist>:
//   vec, kLanes, kBitShift      vector type, lanes per vector, and log2 of
//                               the compare-bitmask bits per lane
//   zero, load, store, set1     unaligned loads/stores, broadcast
//   min, max, add, sub, subs    lane arithmetic in T (unsigned for u8/u16,
//                               wrapping add, saturating subs; int32_t max
//                               is signed)
//   or_                         bitwise or
//   eq, le, lt, gt              unsigned compare → lane bitmask
//   hmax, sum_step, sum_total   horizontal max; widening sum accumulator
//   max_finite                  acc = max(acc, d) in lanes with d < lim
//   widen                       V<uint32_t>::kLanes Dists → uint32 lanes
//   match32, blend              argmin == w selection mask; its blend
//   gather, hor                 64-bit word gather by uint32 index; or-fold
//
// The scalar tails repeat the references in simd.cpp verbatim, so a row
// shorter than one vector takes the reference path.
#pragma once

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "util/simd.hpp"

namespace bncg::simd {
namespace {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i32 = std::int32_t;

/// The 128-bit tail of every horizontal unsigned max: fold halves until one
/// lane is left.
template <typename T>
T hmax128(__m128i m) {
  const auto mx = [](__m128i a, __m128i b) {
    if constexpr (sizeof(T) == 1) {
      return _mm_max_epu8(a, b);
    } else {
      return _mm_max_epu16(a, b);
    }
  };
  m = mx(m, _mm_srli_si128(m, 8));
  m = mx(m, _mm_srli_si128(m, 4));
  m = mx(m, _mm_srli_si128(m, 2));
  if constexpr (sizeof(T) == 1) m = mx(m, _mm_srli_si128(m, 1));
  return static_cast<T>(_mm_cvtsi128_si32(m));
}

template <template <typename> class V, typename Dist>
struct Body {
  using W = V<Dist>;
  using vec = typename W::vec;
  static constexpr u32 L = W::kLanes;

  /// Calls f(lane) for every set lane of a compare bitmask, ascending — the
  /// scalar references' write order.
  template <typename Bits, typename F>
  static void for_each_lane(Bits bits, F&& f) {
    while (bits != 0) {
      const u32 lane = static_cast<u32>(std::countr_zero(bits)) >> W::kBitShift;
      bits &= bits - 1;
      f(lane);
    }
  }

  /// Ascending compaction of base + lane into out[count...]. With kSkip the
  /// index `skip` is written but not counted, so the next hit overwrites it.
  template <bool kSkip, typename Bits>
  static u32 compact(Bits bits, u32 base, u32 skip, u32* out, u32 count) {
    for_each_lane(bits, [&](u32 lane) {
      const u32 idx = base + lane;
      out[count] = idx;
      count += kSkip ? static_cast<u32>(idx != skip) : 1;
    });
    return count;
  }

  /// Every y < n except skip — the cap early-out of both collect filters.
  static u32 all_but(u32 n, u32 skip, u32* out) {
    u32 count = 0;
    for (u32 y = 0; y < n; ++y) {
      out[count] = y;
      count += static_cast<u32>(y != skip);
    }
    return count;
  }

  static u64 combine_sum(const Dist* m, const Dist* c, u32 n, Dist inf) {
    vec acc = W::zero();
    vec worst = W::zero();
    u32 y = 0;
    for (; y + L <= n; y += L) {
      const vec t = W::min(W::load(m + y), W::load(c + y));
      worst = W::max(worst, t);
      acc = W::sum_step(acc, t);
    }
    u32 sum = W::sum_total(acc);
    Dist w = W::hmax(worst);
    for (; y < n; ++y) {
      const Dist t = std::min(m[y], c[y]);
      sum += t;
      w = std::max(w, t);
    }
    if (w >= inf) return kInfCostResult;
    return u64{sum} + (n - 1);
  }

  static u64 combine_max(const Dist* m, const Dist* c, u32 n, Dist inf) {
    vec worst = W::zero();
    u32 y = 0;
    for (; y + L <= n; y += L) worst = W::max(worst, W::min(W::load(m + y), W::load(c + y)));
    Dist w = W::hmax(worst);
    for (; y < n; ++y) w = std::max(w, std::min(m[y], c[y]));
    return w >= inf ? kInfCostResult : u64{1} + w;
  }

  static u64 deletion_ecc(const Dist* m, u32 n, Dist inf) {
    vec worst = W::zero();
    u32 y = 0;
    for (; y + L <= n; y += L) worst = W::max(worst, W::load(m + y));
    Dist w = W::hmax(worst);
    for (; y < n; ++y) w = std::max(w, m[y]);
    return w >= inf ? kInfCostResult : u64{1} + w;
  }

  /// With min1 ≤ min2, min1' = min(min1, val) and min2' = min(min2,
  /// max(min1, val)) reproduce the reference's branch cascade; argmin moves
  /// only where val < min1 strictly, so the first neighbor folded owns ties.
  static void scan_min_update(Dist* min1, Dist* min2, u32* argmin, const Dist* row, u32 z,
                              u32 n) {
    u32 y = 0;
    for (; y + L <= n; y += L) {
      const vec val = W::load(row + y);
      const vec m1 = W::load(min1 + y);
      const vec m2 = W::load(min2 + y);
      W::store(min1 + y, W::min(m1, val));
      W::store(min2 + y, W::min(m2, W::max(m1, val)));
      for_each_lane(W::lt(val, m1), [&](u32 lane) { argmin[y + lane] = z; });
    }
    for (; y < n; ++y) {
      const Dist val = row[y];
      if (val < min1[y]) {
        min2[y] = min1[y];
        min1[y] = val;
        argmin[y] = z;
      } else if (val < min2[y]) {
        min2[y] = val;
      }
    }
  }

  static void select_mrow(Dist* m, const Dist* min1, const Dist* min2, const u32* argmin, u32 w,
                          u32 n) {
    const vec wv = V<u32>::set1(w);
    u32 y = 0;
    for (; y + L <= n; y += L) {
      W::store(m + y, W::blend(W::match32(argmin + y, wv), W::load(min1 + y), W::load(min2 + y)));
    }
    for (; y < n; ++y) m[y] = argmin[y] == w ? min2[y] : min1[y];
  }

  /// r1 ± max(0, m1 − row) in int32 lanes: Dist operands widen exactly, and
  /// the uint32 store wraps like the reference.
  template <bool kAdd>
  static void r1_apply(u32* r1, Dist m1, const Dist* row, u32 n) {
    using W32 = V<i32>;
    const vec m1v = W32::set1(m1);
    const vec zero = W32::zero();
    u32 y = 0;
    for (; y + W32::kLanes <= n; y += W32::kLanes) {
      const vec d = W32::max(W32::sub(m1v, W::widen(row + y)), zero);
      const vec r = W32::load(r1 + y);
      W32::store(r1 + y, kAdd ? W32::add(r, d) : W32::sub(r, d));
    }
    for (; y < n; ++y) {
      const u32 d = static_cast<u32>(m1 > row[y] ? m1 - row[y] : 0);
      r1[y] = kAdd ? r1[y] + d : r1[y] - d;
    }
  }
  static void r1_add(u32* r1, Dist m1, const Dist* row, u32 n) { r1_apply<true>(r1, m1, row, n); }
  static void r1_sub(u32* r1, Dist m1, const Dist* row, u32 n) { r1_apply<false>(r1, m1, row, n); }

  /// Adds wrap in the element width, matching the reference's static_cast.
  static void addition_row(const Dist* src, Dist* dst, const Dist* ru, const Dist* rv, Dist au,
                           Dist av, u32 n, Dist inf) {
    const vec auv = W::set1(au);
    const vec avv = W::set1(av);
    const vec infv = W::set1(inf);
    u32 y = 0;
    for (; y + L <= n; y += L) {
      const vec t1 = W::add(auv, W::load(rv + y));
      const vec t2 = W::add(avv, W::load(ru + y));
      const vec nd = W::min(W::load(src + y), W::min(t1, t2));
      W::store(dst + y, W::min(nd, infv));
    }
    for (; y < n; ++y) {
      const Dist t1 = static_cast<Dist>(au + rv[y]);
      const Dist t2 = static_cast<Dist>(av + ru[y]);
      dst[y] = std::min(std::min(src[y], std::min(t1, t2)), inf);
    }
  }

  static void row_sum_max(const Dist* row, u32 n, u32* sum, Dist* mx) {
    vec acc = W::zero();
    vec worst = W::zero();
    u32 y = 0;
    for (; y + L <= n; y += L) {
      const vec t = W::load(row + y);
      worst = W::max(worst, t);
      acc = W::sum_step(acc, t);
    }
    u32 s = W::sum_total(acc);
    Dist w = W::hmax(worst);
    for (; y < n; ++y) {
      s += row[y];
      w = std::max(w, row[y]);
    }
    *sum = s;
    *mx = w;
  }

  static void finite_max2(const Dist* ru, const Dist* rv, u32 n, Dist inf, Dist* ecc_u,
                          Dist* ecc_v) {
    const vec infv = W::set1(inf);
    vec eu = W::zero();
    vec ev = W::zero();
    u32 y = 0;
    for (; y + L <= n; y += L) {
      eu = W::max_finite(eu, W::load(ru + y), infv);
      ev = W::max_finite(ev, W::load(rv + y), infv);
    }
    Dist mu = W::hmax(eu);
    Dist mv = W::hmax(ev);
    for (; y < n; ++y) {
      mu = std::max(mu, ru[y] >= inf ? Dist{0} : ru[y]);
      mv = std::max(mv, rv[y] >= inf ? Dist{0} : rv[y]);
    }
    *ecc_u = mu;
    *ecc_v = mv;
  }

  static u32 collect_above(const Dist* vals, u32 n, i32 cap, u32 skip, u32* out) {
    if (cap < 0) return all_but(n, skip, out);
    if (cap >= std::numeric_limits<Dist>::max()) return 0;  // no Dist value exceeds it
    const vec capv = W::set1(static_cast<Dist>(cap));
    u32 count = 0;
    u32 y = 0;
    for (; y + L <= n; y += L) {
      count = compact<true>(W::gt(W::load(vals + y), capv), y, skip, out, count);
    }
    for (; y < n; ++y) {
      if (y != skip && static_cast<i32>(vals[y]) > cap) out[count++] = y;
    }
    return count;
  }

  static u32 collect_below(const Dist* vals, u32 n, i32 cap, u32 skip, u32* out) {
    if (cap <= 0) return 0;  // Dist values are never negative
    if (cap > std::numeric_limits<Dist>::max()) return all_but(n, skip, out);
    const vec capv = W::set1(static_cast<Dist>(cap - 1));  // v < cap ⇔ v ≤ cap − 1
    u32 count = 0;
    u32 y = 0;
    for (; y + L <= n; y += L) {
      count = compact<true>(W::le(W::load(vals + y), capv), y, skip, out, count);
    }
    for (; y < n; ++y) {
      if (y != skip && static_cast<i32>(vals[y]) < cap) out[count++] = y;
    }
    return count;
  }

  static void min_fold(Dist* dst, const Dist* row, u32 n) {
    u32 y = 0;
    for (; y + L <= n; y += L) W::store(dst + y, W::min(W::load(dst + y), W::load(row + y)));
    for (; y < n; ++y) dst[y] = std::min(dst[y], row[y]);
  }

  /// |ru − rv| == 1 (kEq1) or > 1. |a − b| = subs(a, b) | subs(b, a) is
  /// exact: one of the two saturating differences is always 0.
  template <bool kEq1>
  static u32 collect_absdiff(const Dist* ru, const Dist* rv, u32 n, u32* out) {
    const vec one = W::set1(Dist{1});
    u32 count = 0;
    u32 y = 0;
    for (; y + L <= n; y += L) {
      const vec a = W::load(ru + y);
      const vec b = W::load(rv + y);
      const vec d = W::or_(W::subs(a, b), W::subs(b, a));
      if constexpr (kEq1) {
        count = compact<false>(W::eq(d, one), y, 0, out, count);
      } else {
        count = compact<false>(W::gt(d, one), y, 0, out, count);
      }
    }
    for (; y < n; ++y) {
      const Dist du = ru[y];
      const Dist dv = rv[y];
      const int diff = du > dv ? du - dv : dv - du;
      if (kEq1 ? diff == 1 : diff > 1) out[count++] = y;
    }
    return count;
  }
  static u32 collect_absdiff_eq1(const Dist* ru, const Dist* rv, u32 n, u32* out) {
    return collect_absdiff<true>(ru, rv, n, out);
  }
  static u32 collect_absdiff_gt1(const Dist* ru, const Dist* rv, u32 n, u32* out) {
    return collect_absdiff<false>(ru, rv, n, out);
  }

  /// Lane bitmasks throughout: hit ⊆ reach, so a vector whose reachable
  /// lanes are all hit skips its remaining children, and a child whose
  /// candidate lanes all met another parent skips its remaining parents.
  static u32 affected_rows(const Dist* vrow, const Dist* const* kids, const Dist* const* parents,
                           const u32* off, u32 nkids, u32 n, Dist inf, u32* out) {
    const vec one = W::set1(Dist{1});
    const vec infv = W::set1(inf);
    u32 count = 0;
    u32 y = 0;
    for (; y + L <= n; y += L) {
      const vec dv = W::load(vrow + y);
      const vec child = W::add(dv, one);
      const auto reach = W::lt(dv, infv);
      std::decay_t<decltype(reach)> hit = 0;
      for (u32 i = 0; i < nkids && hit != reach; ++i) {
        auto bits = W::eq(W::load(kids[i] + y), child) & reach & ~hit;
        for (u32 j = off[i]; j < off[i + 1] && bits != 0; ++j) {
          bits &= ~W::eq(W::load(parents[j] + y), dv);
        }
        hit |= bits;
      }
      count = compact<false>(hit, y, 0, out, count);
    }
    for (; y < n; ++y) {
      const Dist dv = vrow[y];
      if (dv >= inf) continue;
      const Dist child = static_cast<Dist>(dv + 1);
      bool hit = false;
      for (u32 i = 0; i < nkids && !hit; ++i) {
        if (kids[i][y] != child) continue;
        hit = true;
        for (u32 j = off[i]; j < off[i + 1] && hit; ++j) hit = parents[j][y] != dv;
      }
      if (hit) out[count++] = y;
    }
    return count;
  }

  static void fill(Kernels<Dist>& k) {
    k.combine_sum = &combine_sum;
    k.combine_max = &combine_max;
    k.deletion_ecc = &deletion_ecc;
    k.scan_min_update = &scan_min_update;
    k.select_mrow = &select_mrow;
    k.r1_add = &r1_add;
    k.r1_sub = &r1_sub;
    k.addition_row = &addition_row;
    k.row_sum_max = &row_sum_max;
    k.finite_max2 = &finite_max2;
    k.collect_above = &collect_above;
    k.collect_below = &collect_below;
    k.min_fold = &min_fold;
    k.collect_absdiff_eq1 = &collect_absdiff_eq1;
    k.collect_absdiff_gt1 = &collect_absdiff_gt1;
    k.affected_rows = &affected_rows;
  }
};

template <template <typename> class V>
u64 or_gather(const u64* words, const u32* idx, std::size_t count) {
  using W = V<u64>;
  typename W::vec acc = W::zero();
  std::size_t i = 0;
  for (; i + W::kLanes <= count; i += W::kLanes) acc = W::or_(acc, W::gather(words, idx + i));
  u64 word = W::hor(acc);
  for (; i < count; ++i) word |= words[idx[i]];
  return word;
}

/// Points every table entry at the V instantiation.
template <template <typename> class V>
void fill_level(Kernels<u8>& k8, Kernels<u16>& k16, WordKernels& kw) {
  Body<V, u8>::fill(k8);
  Body<V, u16>::fill(k16);
  kw.or_gather = &or_gather<V>;
}

}  // namespace
}  // namespace bncg::simd
