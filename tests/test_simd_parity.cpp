// Differential fuzz suite for the runtime-dispatched SIMD kernels
// (util/simd.hpp): every dispatch level compiled into the binary and
// supported by the host CPU must be bit-identical to the scalar reference
// table — kernel by kernel on random, unaligned-tail, and all-infinity
// inputs, and end to end on scan tables, certification witnesses, and
// whole propose/commit trajectories across 200+ seeded instances at both
// models and both storage widths. Compiled into the seeded property
// harness (bncg_property_tests, CTest label "tier1-property").
//
// The harness pins levels via simd_set_level(); the BNCG_SIMD env knob
// itself is exercised by the forced-scalar CI leg, which runs this whole
// suite with every level collapsed to scalar (the cross-level loops then
// compare scalar to scalar — vacuous there, load-bearing everywhere else).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/search_state.hpp"
#include "core/swap_engine.hpp"
#include "gen/classic.hpp"
#include "gen/random.hpp"
#include "graph/dist_width.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace bncg {
namespace {

/// Every level this binary+CPU can actually run, scalar first.
std::vector<SimdLevel> available_levels() {
  std::vector<SimdLevel> levels{SimdLevel::Scalar};
  if (simd_max_level() >= SimdLevel::Avx2) levels.push_back(SimdLevel::Avx2);
  if (simd_max_level() >= SimdLevel::Avx512) levels.push_back(SimdLevel::Avx512);
  return levels;
}

/// RAII: restore the entry level (the BNCG_SIMD-resolved one) after a test
/// body pinned something else.
struct LevelGuard {
  SimdLevel saved = simd_active_level();
  ~LevelGuard() { simd_set_level(saved); }
};

/// Buffer lengths covering sub-vector, exact-vector, and ragged-tail sizes
/// for 32- and 64-lane kernels.
constexpr std::uint32_t kSizes[] = {1,  2,  3,   7,   8,   15,  16,  31,  32, 33,
                                    63, 64, 65,  100, 127, 128, 129, 255, 256, 257,
                                    511, 513, 1000};

template <typename Dist>
Dist rand_dist(Xoshiro256ss& rng, Dist inf) {
  // Bias toward the interesting edge: the capped-infinity sentinel and its
  // immediate neighborhood, where every compare identity must hold exactly.
  const std::uint64_t roll = rng.below(10);
  if (roll == 0) return inf;
  if (roll == 1) return static_cast<Dist>(inf - rng.below(3));
  return static_cast<Dist>(rng.below(std::uint64_t{inf} + 1));
}

template <typename Dist>
std::vector<Dist> rand_row(Xoshiro256ss& rng, std::uint32_t n, Dist inf, bool all_inf) {
  std::vector<Dist> row(n);
  for (auto& v : row) v = all_inf ? inf : rand_dist(rng, inf);
  return row;
}

/// Runs `body` once per available non-scalar level with that level pinned,
/// after capturing scalar expectations via `expect`.
template <typename Expect, typename Body>
void for_each_level(Expect&& expect, Body&& body) {
  LevelGuard guard;
  simd_set_level(SimdLevel::Scalar);
  expect();
  for (const SimdLevel level : available_levels()) {
    if (level == SimdLevel::Scalar) continue;
    ASSERT_EQ(simd_set_level(level), level);
    body(level);
  }
}

template <typename Dist>
void fuzz_kernels_width(std::uint64_t seed) {
  const Dist inf = kSearchInfFor<Dist>;
  Xoshiro256ss rng(seed);
  for (const std::uint32_t n : kSizes) {
    for (int variant = 0; variant < 4; ++variant) {
      const bool all_inf = variant == 3;
      // +3 slack so an offset start exercises unaligned bases too.
      const std::uint32_t off = variant % 3;
      auto m_buf = rand_row<Dist>(rng, n + 3, inf, all_inf);
      auto c_buf = rand_row<Dist>(rng, n + 3, inf, false);
      const Dist* m = m_buf.data() + off;
      const Dist* c = c_buf.data() + off;
      const std::string ctx = "n=" + std::to_string(n) + " variant=" + std::to_string(variant) +
                              " width=" + std::to_string(sizeof(Dist) * 8);

      // --- pure reductions -------------------------------------------------
      std::uint64_t want_sum = 0, want_max = 0, want_del = 0;
      std::uint32_t want_rsum = 0;
      Dist want_rmax = 0, want_eu = 0, want_ev = 0;
      for_each_level(
          [&] {
            const auto& k = simd::kernels<Dist>();
            want_sum = k.combine_sum(m, c, n, inf);
            want_max = k.combine_max(m, c, n, inf);
            want_del = k.deletion_ecc(m, n, inf);
            k.row_sum_max(m, n, &want_rsum, &want_rmax);
            k.finite_max2(m, c, n, inf, &want_eu, &want_ev);
          },
          [&](SimdLevel level) {
            const auto& k = simd::kernels<Dist>();
            const std::string lctx = ctx + " level=" + simd_level_name(level);
            EXPECT_EQ(k.combine_sum(m, c, n, inf), want_sum) << lctx;
            EXPECT_EQ(k.combine_max(m, c, n, inf), want_max) << lctx;
            EXPECT_EQ(k.deletion_ecc(m, n, inf), want_del) << lctx;
            std::uint32_t rsum = 0;
            Dist rmax = 0, eu = 0, ev = 0;
            k.row_sum_max(m, n, &rsum, &rmax);
            k.finite_max2(m, c, n, inf, &eu, &ev);
            EXPECT_EQ(rsum, want_rsum) << lctx;
            EXPECT_EQ(rmax, want_rmax) << lctx;
            EXPECT_EQ(eu, want_eu) << lctx;
            EXPECT_EQ(ev, want_ev) << lctx;
          });

      // --- scan-table fold + select + R1 -----------------------------------
      const std::uint32_t folds = 1 + static_cast<std::uint32_t>(rng.below(5));
      std::vector<std::vector<Dist>> fold_rows;
      std::vector<std::uint32_t> fold_ids;
      for (std::uint32_t i = 0; i < folds; ++i) {
        fold_rows.push_back(rand_row<Dist>(rng, n, inf, false));
        fold_ids.push_back(static_cast<std::uint32_t>(rng.below(n)));
      }
      const std::uint32_t w_sel = fold_ids.front();
      std::vector<Dist> want_min1, want_min2, want_sel(n);
      std::vector<std::uint32_t> want_arg, want_r1(n, 0);
      const auto run_tables = [&](std::vector<Dist>& min1, std::vector<Dist>& min2,
                                  std::vector<std::uint32_t>& argmin, std::vector<Dist>& sel,
                                  std::vector<std::uint32_t>& r1) {
        const auto& k = simd::kernels<Dist>();
        min1.assign(n, inf);
        min2.assign(n, inf);
        argmin.assign(n, kNoVertex);
        for (std::uint32_t i = 0; i < folds; ++i) {
          k.scan_min_update(min1.data(), min2.data(), argmin.data(), fold_rows[i].data(),
                            fold_ids[i], n);
        }
        k.select_mrow(sel.data(), min1.data(), min2.data(), argmin.data(), w_sel, n);
        r1.assign(n, 0x10000);  // nonzero base: catches add/sub sign slips
        for (std::uint32_t i = 0; i < folds; ++i) {
          k.r1_add(r1.data(), min1[fold_ids[i] % n], fold_rows[i].data(), n);
        }
        k.r1_sub(r1.data(), min1[fold_ids[0] % n], fold_rows[0].data(), n);
      };
      for_each_level(
          [&] { run_tables(want_min1, want_min2, want_arg, want_sel, want_r1); },
          [&](SimdLevel level) {
            std::vector<Dist> min1, min2, sel(n);
            std::vector<std::uint32_t> argmin, r1;
            run_tables(min1, min2, argmin, sel, r1);
            const std::string lctx = ctx + " level=" + simd_level_name(level);
            EXPECT_EQ(min1, want_min1) << lctx;
            EXPECT_EQ(min2, want_min2) << lctx;
            EXPECT_EQ(argmin, want_arg) << lctx;
            EXPECT_EQ(sel, want_sel) << lctx;
            EXPECT_EQ(r1, want_r1) << lctx;
          });

      // --- addition identity row (incl. in-place aliasing) -----------------
      auto src = rand_row<Dist>(rng, n, inf, all_inf);
      const auto ru = rand_row<Dist>(rng, n, inf, false);
      const auto rv = rand_row<Dist>(rng, n, inf, false);
      const Dist au = static_cast<Dist>(rng.below(inf));
      const Dist av = static_cast<Dist>(rng.below(inf));
      std::vector<Dist> want_dst(n), want_inplace;
      for_each_level(
          [&] {
            const auto& k = simd::kernels<Dist>();
            k.addition_row(src.data(), want_dst.data(), ru.data(), rv.data(), au, av, n, inf);
            want_inplace = src;
            k.addition_row(want_inplace.data(), want_inplace.data(), ru.data(), rv.data(), au,
                           av, n, inf);
          },
          [&](SimdLevel level) {
            const auto& k = simd::kernels<Dist>();
            std::vector<Dist> dst(n);
            k.addition_row(src.data(), dst.data(), ru.data(), rv.data(), au, av, n, inf);
            std::vector<Dist> inplace = src;
            k.addition_row(inplace.data(), inplace.data(), ru.data(), rv.data(), au, av, n, inf);
            const std::string lctx = ctx + " level=" + simd_level_name(level);
            EXPECT_EQ(dst, want_dst) << lctx;
            EXPECT_EQ(inplace, want_inplace) << lctx;
          });

      // --- filters ----------------------------------------------------------
      const std::int32_t caps[] = {-1, 0, static_cast<std::int32_t>(inf) / 2,
                                   static_cast<std::int32_t>(inf) - 1,
                                   static_cast<std::int32_t>(inf)};
      const std::uint32_t skip = static_cast<std::uint32_t>(rng.below(n + 1));  // may be == n
      for (const std::int32_t cap : caps) {
        std::vector<std::uint32_t> want_above, want_below, want_eq1, want_gt1;
        for_each_level(
            [&] {
              const auto& k = simd::kernels<Dist>();
              want_above.resize(n);
              want_above.resize(k.collect_above(m, n, cap, skip, want_above.data()));
              want_below.resize(n);
              want_below.resize(k.collect_below(m, n, cap, skip, want_below.data()));
              want_eq1.resize(n);
              want_eq1.resize(k.collect_absdiff_eq1(m, c, n, want_eq1.data()));
              want_gt1.resize(n);
              want_gt1.resize(k.collect_absdiff_gt1(m, c, n, want_gt1.data()));
            },
            [&](SimdLevel level) {
              const auto& k = simd::kernels<Dist>();
              std::vector<std::uint32_t> out(n);
              const std::string lctx =
                  ctx + " cap=" + std::to_string(cap) + " level=" + simd_level_name(level);
              std::vector<std::uint32_t> got(out.begin(),
                                             out.begin() + k.collect_above(m, n, cap, skip,
                                                                           out.data()));
              EXPECT_EQ(got, want_above) << lctx;
              got.assign(out.begin(),
                         out.begin() + k.collect_below(m, n, cap, skip, out.data()));
              EXPECT_EQ(got, want_below) << lctx;
              // {> cap} from collect_above and {< cap+1} = {≤ cap} from
              // collect_below partition {0..n−1} \ {skip}.
              got.assign(out.begin(),
                         out.begin() + k.collect_below(m, n, cap + 1, skip, out.data()));
              EXPECT_EQ(want_above.size() + got.size(),
                        static_cast<std::size_t>(n) - (skip < n ? 1 : 0))
                  << lctx;
              got.assign(out.begin(),
                         out.begin() + k.collect_absdiff_eq1(m, c, n, out.data()));
              EXPECT_EQ(got, want_eq1) << lctx;
              got.assign(out.begin(),
                         out.begin() + k.collect_absdiff_gt1(m, c, n, out.data()));
              EXPECT_EQ(got, want_gt1) << lctx;
            });
      }

      // --- affected-row mask -------------------------------------------------
      // Kid entries hit vrow + 1 and parent entries hit vrow often enough
      // that every outcome (no kid, an unparented kid, all kids parented)
      // occurs; the definition itself is the reference for the scalar table.
      const auto vrow_buf = rand_row<Dist>(rng, n + 3, inf, all_inf);
      const Dist* vrow = vrow_buf.data() + off;
      const std::uint32_t nkids = static_cast<std::uint32_t>(rng.below(5));
      std::vector<std::vector<Dist>> kid_bufs, parent_bufs;
      std::vector<std::uint32_t> parent_off{0};
      for (std::uint32_t i = 0; i < nkids; ++i) {
        auto kid = rand_row<Dist>(rng, n + 3, inf, false);
        for (std::uint32_t y = 0; y < n; ++y) {
          if (vrow[y] < inf && rng.below(2) == 0) kid[off + y] = static_cast<Dist>(vrow[y] + 1);
        }
        kid_bufs.push_back(std::move(kid));
        const std::uint32_t parents = static_cast<std::uint32_t>(rng.below(4));
        for (std::uint32_t j = 0; j < parents; ++j) {
          auto parent = rand_row<Dist>(rng, n + 3, inf, false);
          for (std::uint32_t y = 0; y < n; ++y) {
            if (rng.below(3) == 0) parent[off + y] = vrow[y];
          }
          parent_bufs.push_back(std::move(parent));
        }
        parent_off.push_back(static_cast<std::uint32_t>(parent_bufs.size()));
      }
      std::vector<const Dist*> kids, parents;
      for (const auto& buf : kid_bufs) kids.push_back(buf.data() + off);
      for (const auto& buf : parent_bufs) parents.push_back(buf.data() + off);
      std::vector<std::uint32_t> want_affected;
      for (std::uint32_t y = 0; y < n; ++y) {
        if (vrow[y] >= inf) continue;
        bool hit = false;
        for (std::uint32_t i = 0; i < nkids; ++i) {
          bool unparented = kids[i][y] == static_cast<Dist>(vrow[y] + 1);
          for (std::uint32_t j = parent_off[i]; j < parent_off[i + 1]; ++j) {
            unparented = unparented && parents[j][y] != vrow[y];
          }
          hit = hit || unparented;
        }
        if (hit) want_affected.push_back(y);
      }
      const auto run_affected = [&] {
        std::vector<std::uint32_t> out(n);
        out.resize(simd::kernels<Dist>().affected_rows(vrow, kids.data(), parents.data(),
                                                       parent_off.data(), nkids, n, inf,
                                                       out.data()));
        return out;
      };
      for_each_level([&] { EXPECT_EQ(run_affected(), want_affected) << ctx << " level=scalar"; },
                     [&](SimdLevel level) {
                       EXPECT_EQ(run_affected(), want_affected)
                           << ctx << " level=" << simd_level_name(level);
                     });

      // --- k-way min fold ---------------------------------------------------
      const auto fold_src = rand_row<Dist>(rng, n, inf, all_inf);
      const auto fold_base = rand_row<Dist>(rng, n, inf, false);
      std::vector<Dist> want_fold;
      for_each_level(
          [&] {
            const auto& k = simd::kernels<Dist>();
            want_fold = fold_base;
            k.min_fold(want_fold.data(), fold_src.data(), n);
          },
          [&](SimdLevel level) {
            const auto& k = simd::kernels<Dist>();
            std::vector<Dist> dst = fold_base;
            k.min_fold(dst.data(), fold_src.data(), n);
            EXPECT_EQ(dst, want_fold) << ctx << " level=" << simd_level_name(level);
          });
    }
  }
}

TEST(SimdParity, KernelsMatchScalarU8) { fuzz_kernels_width<std::uint8_t>(0x51D8); }

TEST(SimdParity, KernelsMatchScalarU16) { fuzz_kernels_width<std::uint16_t>(0x51D16); }

TEST(SimdParity, OrGatherMatchesScalar) {
  Xoshiro256ss rng(0x06A7);
  for (const std::uint32_t n : kSizes) {
    std::vector<std::uint64_t> words(n);
    for (auto& w : words) w = rng();
    for (const std::uint32_t count : {std::uint32_t{0}, std::uint32_t{1}, std::uint32_t{3},
                                      std::uint32_t{4}, std::uint32_t{7}, std::uint32_t{8},
                                      std::uint32_t{9}, n}) {
      std::vector<std::uint32_t> idx(count);
      for (auto& i : idx) i = static_cast<std::uint32_t>(rng.below(n));
      std::uint64_t want = 0;
      for_each_level([&] { want = simd::words().or_gather(words.data(), idx.data(), count); },
                     [&](SimdLevel level) {
                       EXPECT_EQ(simd::words().or_gather(words.data(), idx.data(), count), want)
                           << "n=" << n << " count=" << count << " level="
                           << simd_level_name(level);
                     });
    }
  }
}

TEST(SimdParity, LevelControls) {
  LevelGuard guard;
  // The clamp: requesting above the max lands on the max; requesting scalar
  // always succeeds; names round-trip the BNCG_SIMD vocabulary.
  EXPECT_EQ(simd_set_level(SimdLevel::Scalar), SimdLevel::Scalar);
  EXPECT_EQ(simd_active_level(), SimdLevel::Scalar);
  EXPECT_EQ(simd_set_level(SimdLevel::Avx512),
            std::min(SimdLevel::Avx512, simd_max_level()));
  EXPECT_EQ(simd_active_level(), simd_max_level());
  EXPECT_STREQ(simd_level_name(SimdLevel::Scalar), "scalar");
  EXPECT_STREQ(simd_level_name(SimdLevel::Avx2), "avx2");
  EXPECT_STREQ(simd_level_name(SimdLevel::Avx512), "avx512");
}

// ------------------------------------------------------------- end to end

Graph parity_instance(int trial, Xoshiro256ss& rng) {
  switch (trial % 6) {
    case 0: {
      const Vertex n = 6 + static_cast<Vertex>(rng.below(13));
      const std::size_t max_edges = static_cast<std::size_t>(n) * (n - 1) / 2;
      const std::size_t m =
          std::clamp<std::size_t>(10 + rng.below(26), std::size_t{n} - 1, max_edges);
      return random_connected_gnm(n, m, rng);
    }
    case 1:
      return random_tree(6 + static_cast<Vertex>(rng.below(13)), rng);
    case 2:
      return cycle(5 + static_cast<Vertex>(rng.below(14)));
    case 3:
      return path(6 + static_cast<Vertex>(rng.below(12)));
    case 4: {
      // Disconnection-prone: masked sweeps hit all-infinity rows.
      const Vertex n = 8 + static_cast<Vertex>(rng.below(9));
      return random_gnm(n, n + rng.below(n), rng);
    }
    default:
      return random_connected_gnm(10 + static_cast<Vertex>(rng.below(8)), 18 + rng.below(18),
                                  rng);
  }
}

/// One agent's full observable surface at the current level: certificate
/// verdict + witness + move count from the engine, and the SearchState scan
/// tables of a few agents.
struct Snapshot {
  bool is_eq = false;
  std::uint64_t moves = 0;
  std::optional<Deviation> witness;
  std::vector<SearchState::ScanTables> tables;
  std::uint64_t unrest = 0;

  bool operator==(const Snapshot& o) const {
    const auto same_dev = [](const std::optional<Deviation>& a,
                             const std::optional<Deviation>& b) {
      if (a.has_value() != b.has_value()) return false;
      if (!a) return true;
      return a->swap.v == b->swap.v && a->swap.remove_w == b->swap.remove_w &&
             a->swap.add_w == b->swap.add_w && a->cost_before == b->cost_before &&
             a->cost_after == b->cost_after && a->kind == b->kind;
    };
    if (is_eq != o.is_eq || moves != o.moves || unrest != o.unrest ||
        !same_dev(witness, o.witness) || tables.size() != o.tables.size()) {
      return false;
    }
    for (std::size_t i = 0; i < tables.size(); ++i) {
      if (tables[i].min1 != o.tables[i].min1 || tables[i].min2 != o.tables[i].min2 ||
          tables[i].argmin != o.tables[i].argmin || tables[i].r1 != o.tables[i].r1) {
        return false;
      }
    }
    return true;
  }
};

Snapshot snapshot_instance(const Graph& g, UsageCost model, WidthPolicy width) {
  Snapshot snap;
  const bool deletions = model == UsageCost::Max;
  SwapEngine engine(g, {.width = width});
  const EquilibriumCertificate cert = engine.certify(model, deletions);
  snap.is_eq = cert.is_equilibrium;
  snap.moves = cert.moves_checked;
  snap.witness = cert.witness;
  SearchState state(g, model, deletions, /*parallel=*/true, width);
  snap.unrest = state.unrest();
  const Vertex probe = std::min<Vertex>(g.num_vertices(), 3);
  for (Vertex a = 0; a < probe; ++a) snap.tables.push_back(state.debug_scan_tables(a));
  return snap;
}

TEST(SimdParity, EndToEndAcrossLevels) {
  // 104 instances × both models × both widths = 416 certification+scan-table
  // comparisons per non-scalar level.
  LevelGuard guard;
  Xoshiro256ss rng(0xE2E);
  for (int trial = 0; trial < 104; ++trial) {
    const Graph g = parity_instance(trial, rng);
    for (const UsageCost model : {UsageCost::Sum, UsageCost::Max}) {
      for (const WidthPolicy width : {WidthPolicy::ForceU8, WidthPolicy::ForceU16}) {
        simd_set_level(SimdLevel::Scalar);
        const Snapshot want = snapshot_instance(g, model, width);
        for (const SimdLevel level : available_levels()) {
          if (level == SimdLevel::Scalar) continue;
          simd_set_level(level);
          const Snapshot got = snapshot_instance(g, model, width);
          EXPECT_TRUE(got == want)
              << "trial " << trial << " model " << (model == UsageCost::Sum ? "sum" : "max")
              << " width " << (width == WidthPolicy::ForceU8 ? "u8" : "u16") << " level "
              << simd_level_name(level);
        }
      }
    }
  }
}

/// Deterministic greedy trajectory: propose a pseudo-random toggle each
/// step, commit iff the proposal strictly lowers unrest. Returns the full
/// decision trace — any cross-level divergence in any kernel output along
/// the way changes the trace.
std::vector<std::uint64_t> run_trajectory(const Graph& g0, UsageCost model, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  SearchState state(g0, model, model == UsageCost::Max, /*parallel=*/true, WidthPolicy::Auto);
  std::vector<std::uint64_t> trace;
  const Vertex n = state.num_vertices();
  std::uint64_t current = state.unrest();
  trace.push_back(current);
  for (int step = 0; step < 24; ++step) {
    const Vertex u = static_cast<Vertex>(rng.below(n));
    Vertex v = static_cast<Vertex>(rng.below(n));
    if (v == u) v = (v + 1) % n;
    const ToggleShape shape = state.propose_toggle(u, v);
    if (!shape.connected) {
      trace.push_back(~std::uint64_t{0});
      continue;
    }
    const std::uint64_t proposal = state.proposal_unrest();
    trace.push_back(proposal);
    if (proposal < current) {
      state.commit();
      current = proposal;
    }
  }
  return trace;
}

TEST(SimdParity, AnnealTrajectoriesMatchAcrossLevels) {
  LevelGuard guard;
  Xoshiro256ss rng(0x7247);
  for (int trial = 0; trial < 48; ++trial) {
    const Graph g = parity_instance(trial, rng);
    if (g.num_vertices() < 4) continue;
    const std::uint64_t seed = rng();
    for (const UsageCost model : {UsageCost::Sum, UsageCost::Max}) {
      simd_set_level(SimdLevel::Scalar);
      const std::vector<std::uint64_t> want = run_trajectory(g, model, seed);
      for (const SimdLevel level : available_levels()) {
        if (level == SimdLevel::Scalar) continue;
        simd_set_level(level);
        EXPECT_EQ(run_trajectory(g, model, seed), want)
            << "trial " << trial << " model " << (model == UsageCost::Sum ? "sum" : "max")
            << " level " << simd_level_name(level);
      }
    }
  }
}

}  // namespace
}  // namespace bncg
