// Differential suite for the budgeted distance-row provider (DESIGN.md
// §16): the blocked row cache (graph/row_cache.hpp) + budgeted SwapEngine
// scans must reproduce the dense path's certificates byte for byte —
// verdict, move counts, witness fields — across 200+ seeded instances at
// both storage widths and both SIMD extremes, match the naive oracle agent
// by agent in both storage modes, survive eviction thrash
// (budget barely above one block), and never prune a row that could have
// mattered (every never-materialized candidate re-verified non-improving
// by BFS). Adaptive storage (stream, then promote to the dense slab) is
// checked row by row against dense across its promotion and scan by scan
// against the oracle and budgeted storage. CMakeLists pins the whole
// RowCache* filter at BNCG_THREADS 1 and 4 — lane budgets derive from the
// pool size, so both counts must certify identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "core/certify_sharded.hpp"
#include "core/dist_provider.hpp"
#include "core/dynamics.hpp"
#include "core/equilibrium.hpp"
#include "core/instance.hpp"
#include "core/swap.hpp"
#include "core/swap_engine.hpp"
#include "core/usage_cost.hpp"
#include "gen/classic.hpp"
#include "gen/paper.hpp"
#include "gen/random.hpp"
#include "graph/bfs.hpp"
#include "graph/dist_width.hpp"
#include "graph/io.hpp"
#include "graph/row_cache.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace bncg {
namespace {

/// A per-lane budget of a few rows: small enough that no dense slab fits
/// at n ≥ 16 (dense u8 needs n² ≤ 12n ⇔ n ≤ 12), large enough that the
/// cache's two-block minimum holds at every pool size CI pins.
[[nodiscard]] std::uint64_t forcing_budget(Vertex n) {
  return ThreadPool::global().size() * 12ull * n;
}

/// The thrash budget: exactly three single-row u16 blocks per lane — one
/// above the cache's two-block minimum, so any scan touching more than
/// three rows evicts constantly.
[[nodiscard]] std::uint64_t thrash_budget(Vertex n) {
  return ThreadPool::global().size() * 6ull * n;
}

void expect_dev_eq(const std::optional<Deviation>& want, const std::optional<Deviation>& got,
                   const std::string& ctx) {
  ASSERT_EQ(want.has_value(), got.has_value()) << ctx;
  if (!want) return;
  EXPECT_EQ(want->swap.v, got->swap.v) << ctx;
  EXPECT_EQ(want->swap.remove_w, got->swap.remove_w) << ctx;
  EXPECT_EQ(want->swap.add_w, got->swap.add_w) << ctx;
  EXPECT_EQ(want->cost_before, got->cost_before) << ctx;
  EXPECT_EQ(want->cost_after, got->cost_after) << ctx;
  EXPECT_EQ(static_cast<int>(want->kind), static_cast<int>(got->kind)) << ctx;
}

void expect_cert_eq(const ShardedCertificate& dense, const ShardedCertificate& budgeted,
                    const std::string& ctx) {
  EXPECT_EQ(dense.certificate.is_equilibrium, budgeted.certificate.is_equilibrium) << ctx;
  EXPECT_EQ(dense.certificate.moves_checked, budgeted.certificate.moves_checked) << ctx;
  EXPECT_EQ(dense.agents_scanned, budgeted.agents_scanned) << ctx;
  expect_dev_eq(dense.certificate.witness, budgeted.certificate.witness, ctx);
}

struct RunSpec {
  UsageCost model;
  bool include_deletions;
  const char* name;
};

constexpr RunSpec kRuns[] = {
    {UsageCost::Sum, false, "sum"},
    {UsageCost::Max, false, "max"},
    {UsageCost::Max, true, "max+del"},
};

constexpr WidthPolicy kWidths[] = {WidthPolicy::ForceU8, WidthPolicy::ForceU16};

/// Dense vs budgeted certificate for one (graph, run, width) cell.
void check_parity(const Graph& g, const RunSpec& run, WidthPolicy width, std::uint64_t budget,
                  const std::string& ctx) {
  ShardedCertifyConfig dense_cfg;
  dense_cfg.resources.width = width;
  const ShardedCertificate dense =
      certify_sharded(g, run.model, run.include_deletions, dense_cfg);

  ShardedCertifyConfig budget_cfg = dense_cfg;
  budget_cfg.resources.mem_budget = budget;
  const ShardedCertificate budgeted =
      certify_sharded(g, run.model, run.include_deletions, budget_cfg);
  expect_cert_eq(dense, budgeted, ctx);
}

// ------------------------------------------------------------------ units

TEST(RowCache, ParseMemBytes) {
  EXPECT_EQ(parse_mem_bytes("0"), 0u);
  EXPECT_EQ(parse_mem_bytes("1024"), 1024u);
  EXPECT_EQ(parse_mem_bytes("4K"), 4096u);
  EXPECT_EQ(parse_mem_bytes("4k"), 4096u);
  EXPECT_EQ(parse_mem_bytes("64M"), 64ull << 20);
  EXPECT_EQ(parse_mem_bytes("2G"), 2ull << 30);
  EXPECT_THROW((void)parse_mem_bytes(""), std::invalid_argument);
  EXPECT_THROW((void)parse_mem_bytes("12Q"), std::invalid_argument);
  EXPECT_THROW((void)parse_mem_bytes("K"), std::invalid_argument);
  EXPECT_THROW((void)parse_mem_bytes("-4"), std::invalid_argument);
  EXPECT_THROW((void)parse_mem_bytes("99999999999999999999G"), std::invalid_argument);
}

TEST(RowCache, PolicyWidthThresholds) {
  EXPECT_EQ(WidthAndBudgetPolicy::width_for_max_distance(0), DistWidth::U8);
  EXPECT_EQ(WidthAndBudgetPolicy::width_for_max_distance(kMaxFiniteFor<std::uint8_t>),
            DistWidth::U8);
  EXPECT_EQ(WidthAndBudgetPolicy::width_for_max_distance(kMaxFiniteFor<std::uint8_t> + 1),
            DistWidth::U16);
  // Unlimited budget: dense fits below the u16 id cap, never above it.
  WidthAndBudgetPolicy unlimited{ResourceConfig{}, /*lanes=*/1};
  EXPECT_TRUE(unlimited.dense_fits(1000, DistWidth::U8));
  EXPECT_FALSE(unlimited.dense_fits(kInfDist16, DistWidth::U16));
  // Unbudgeted first-improvement scans stream and promote themselves to
  // the slab at every n below the u16 id cap; full scans keep the slab.
  EXPECT_EQ(unlimited.storage_for(4096, DistWidth::U16, /*stop_at_first=*/true),
            RowStorage::Adaptive);
  EXPECT_EQ(unlimited.storage_for(4097, DistWidth::U8, /*stop_at_first=*/true),
            RowStorage::Adaptive);
  EXPECT_EQ(unlimited.storage_for(4097, DistWidth::U8), RowStorage::Dense);
  EXPECT_EQ(unlimited.storage_for(kInfDist16, DistWidth::U16, /*stop_at_first=*/true),
            RowStorage::Budgeted);
  // ⌈n/64⌉ pre-promotion rows: one 64-source sweep of the dense APSP each.
  EXPECT_EQ(WidthAndBudgetPolicy::rows_before_promotion(1), 1u);
  EXPECT_EQ(WidthAndBudgetPolicy::rows_before_promotion(64), 1u);
  EXPECT_EQ(WidthAndBudgetPolicy::rows_before_promotion(65), 2u);
  EXPECT_EQ(WidthAndBudgetPolicy::rows_before_promotion(520), 9u);
  // A 10-byte lane budget rejects any dense slab bigger than 3×3.
  ResourceConfig tiny;
  tiny.mem_budget = 10;
  WidthAndBudgetPolicy capped{tiny, /*lanes=*/1};
  EXPECT_TRUE(capped.dense_fits(3, DistWidth::U8));
  EXPECT_FALSE(capped.dense_fits(4, DistWidth::U8));
  EXPECT_FALSE(capped.dense_fits(3, DistWidth::U16));
  EXPECT_EQ(capped.storage_for(4, DistWidth::U8), RowStorage::Budgeted);
  EXPECT_EQ(capped.storage_for(3, DistWidth::U8), RowStorage::Dense);
  // The 3×3 slab fits, the slab plus its one pre-promotion row (12 bytes)
  // does not: a first-improvement scan takes the slab up front.
  EXPECT_EQ(capped.storage_for(3, DistWidth::U8, /*stop_at_first=*/true), RowStorage::Dense);
  EXPECT_EQ(capped.storage_for(4, DistWidth::U8, /*stop_at_first=*/true), RowStorage::Budgeted);
  ResourceConfig roomy;
  roomy.mem_budget = 12;
  const WidthAndBudgetPolicy adaptive{roomy, /*lanes=*/1};
  EXPECT_EQ(adaptive.storage_for(3, DistWidth::U8, /*stop_at_first=*/true),
            RowStorage::Adaptive);
  EXPECT_EQ(adaptive.storage_for(3, DistWidth::U8), RowStorage::Dense);
}

TEST(RowCache, ConfigureRejectsImpossibleBudget) {
  RowCache<std::uint16_t> cache;
  // Two single-row u16 blocks at n=100 need 400 bytes.
  EXPECT_THROW(cache.configure(100, 399), std::invalid_argument);
  cache.configure(100, 400);
  EXPECT_EQ(cache.block_rows(), 1u);
  EXPECT_EQ(cache.max_blocks(), 2u);
  cache.configure(100, 4ull * 100 * 200);  // four u16 slabs: full 64-row blocks
  EXPECT_EQ(cache.block_rows(), 64u);
  EXPECT_EQ(cache.max_blocks(), 6u);  // floor(80000 / (64·200))
}

TEST(RowCache, RowsMatchBfsAndEvictionsCount) {
  Xoshiro256ss rng(7);
  const Graph g = random_connected_gnm(60, 120, rng);
  const CsrGraph csr(g);
  const Vertex n = g.num_vertices();

  RowCache<std::uint16_t> cache;
  cache.configure(n, 8ull * n);  // four single-row blocks
  BatchBfsWorkspace ws;
  const Vertex masked = 3;
  cache.begin_context(csr, masked, kInfDist16, static_cast<std::uint16_t>(kInfDist16 - 1));

  // Reference: one masked BFS row at a time via the engine-independent
  // positional traversal.
  std::vector<std::uint16_t> want(n);
  for (Vertex src = 0; src < n; ++src) {
    if (src == masked) continue;
    const Vertex one[] = {src};
    ASSERT_TRUE(bfs_batch_capped<std::uint16_t>(csr, one, MaskedEdge{}, want.data(), n, ws,
                                                masked, kInfDist16,
                                                static_cast<std::uint16_t>(kInfDist16 - 1)));
    const std::uint16_t* got = cache.row(src, ws);
    ASSERT_NE(got, nullptr);
    for (Vertex y = 0; y < n; ++y) {
      ASSERT_EQ(got[y], want[y]) << "src=" << src << " y=" << y;
    }
  }
  // 59 materializations through a 4-row cache must have recycled blocks.
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().misses, static_cast<std::uint64_t>(n - 1));
  EXPECT_LE(cache.resident_sources().size(), 4u);
  EXPECT_LE(cache.stats().peak_bytes, 8ull * n);

  // Context bump: every resident row becomes invisible in O(1).
  cache.begin_context(csr, masked, kInfDist16, static_cast<std::uint16_t>(kInfDist16 - 1));
  EXPECT_TRUE(cache.resident_sources().empty());
  EXPECT_FALSE(cache.resident(5));
}

// ------------------------------------------------- differential certify

// 35 seeded G(n, m) instances × 3 run configs × 2 forced widths = 210
// dense-vs-budgeted certificate comparisons, n spanning 16..63 with edge
// densities from tree-like to dense. Witnesses (gnm instances are almost
// never equilibria) make this byte-parity, not just verdict-parity.
TEST(RowCache, DifferentialCertifyGnm) {
  for (std::uint64_t seed = 1; seed <= 35; ++seed) {
    Xoshiro256ss rng(seed * 0x9e3779b97f4a7c15ull);
    const Vertex n = static_cast<Vertex>(16 + (seed * 7) % 48);
    const std::size_t m = n - 1 + static_cast<std::size_t>(rng.below(2 * n));
    const Graph g = random_connected_gnm(n, m, rng);
    for (const RunSpec& run : kRuns) {
      for (const WidthPolicy width : kWidths) {
        const std::string ctx = "seed=" + std::to_string(seed) + " n=" + std::to_string(n) +
                                " m=" + std::to_string(m) + " run=" + run.name +
                                " width=" + (width == WidthPolicy::ForceU8 ? "u8" : "u16");
        check_parity(g, run, width, forcing_budget(n), ctx);
        if (HasFatalFailure()) return;
      }
    }
  }
}

// Structured instances: equilibria (torus — exercises the prune fast
// path), near-equilibria, and a path long enough that ForceU8 saturates
// and falls back to u16 in BOTH storage modes.
TEST(RowCache, DifferentialCertifyStructured) {
  std::vector<std::pair<Graph, const char*>> instances;
  instances.emplace_back(rotated_torus(5).graph(), "torus5");
  instances.emplace_back(rotated_torus(6).graph(), "torus6");
  instances.emplace_back(cycle(48), "cycle48");
  instances.emplace_back(path(70), "path70");  // masked dist > u8 cap
  instances.emplace_back(complete_bipartite(6, 10), "k6_10");
  for (const auto& [g, name] : instances) {
    for (const RunSpec& run : kRuns) {
      for (const WidthPolicy width : kWidths) {
        const std::string ctx = std::string(name) + " run=" + run.name +
                                " width=" + (width == WidthPolicy::ForceU8 ? "u8" : "u16");
        check_parity(g, run, width, forcing_budget(g.num_vertices()), ctx);
        if (HasFatalFailure()) return;
      }
    }
  }
}

// stop_on_violation makes the witness schedule-dependent but the verdict
// deterministic — budgeted and dense must agree on it.
TEST(RowCache, DifferentialStopOnViolationVerdict) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Xoshiro256ss rng(seed);
    const Vertex n = static_cast<Vertex>(20 + seed * 4);
    const Graph g = random_connected_gnm(n, 2 * n, rng);
    for (const RunSpec& run : kRuns) {
      ShardedCertifyConfig dense_cfg;
      dense_cfg.stop_on_violation = true;
      const ShardedCertificate dense =
          certify_sharded(g, run.model, run.include_deletions, dense_cfg);
      ShardedCertifyConfig budget_cfg = dense_cfg;
      budget_cfg.resources.mem_budget = forcing_budget(n);
      const ShardedCertificate budgeted =
          certify_sharded(g, run.model, run.include_deletions, budget_cfg);
      EXPECT_EQ(dense.certificate.is_equilibrium, budgeted.certificate.is_equilibrium)
          << "seed=" << seed << " run=" << run.name;
    }
  }
}

/// The brute-force oracle's answer for one (agent, run, best/first) cell.
std::optional<Deviation> naive_deviation(const Graph& g, Vertex v, const RunSpec& run, bool first,
                                         BfsWorkspace& ws) {
  if (run.model == UsageCost::Sum) {
    return first ? naive::first_sum_deviation(g, v, ws) : naive::best_sum_deviation(g, v, ws);
  }
  return first ? naive::first_max_deviation(g, v, ws, run.include_deletions)
               : naive::best_max_deviation(g, v, ws, run.include_deletions);
}

// Per-agent parity at the engine level, including the per-call
// moves_checked counter and first_deviation's early-exit accounting — the
// sharpest-grained equivalence the certificate parity above aggregates.
// Dense and budgeted storage run the same scan body, so each is checked
// against the independent naive oracle (and full-scan move counts against
// their closed form), not only against each other.
TEST(RowCache, DifferentialPerAgentMoves) {
  BfsWorkspace ws;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Xoshiro256ss rng(seed + 100);
    const Vertex n = static_cast<Vertex>(24 + seed * 8);
    const Graph g = random_connected_gnm(n, n + n / 2, rng);
    for (const RunSpec& run : kRuns) {
      for (const WidthPolicy width : kWidths) {
        ResourceConfig dense_res;
        dense_res.width = width;
        ResourceConfig budget_res = dense_res;
        budget_res.mem_budget = forcing_budget(n);
        const SwapEngine dense(g, dense_res);
        const SwapEngine budgeted(g, budget_res);
        ASSERT_EQ(dense.budget_policy().storage_for(n, dense.preferred_width()),
                  RowStorage::Dense);
        ASSERT_EQ(budgeted.budget_policy().storage_for(n, budgeted.preferred_width()),
                  RowStorage::Budgeted);
        SwapEngine::Scratch ds, bs;
        for (Vertex v = 0; v < n; ++v) {
          // A full scan checks one candidate per (incident edge, non-neighbor
          // ≠ v) pair, plus one deletion per incident edge when the max
          // deletion clause participates.
          const std::uint64_t deg = g.degree(v);
          const std::uint64_t full_moves =
              deg * (n - 1 - deg) + (run.include_deletions ? deg : 0);
          for (const bool first : {false, true}) {
            const std::string ctx = "seed=" + std::to_string(seed) + " v=" + std::to_string(v) +
                                    " run=" + run.name +
                                    " width=" + (width == WidthPolicy::ForceU8 ? "u8" : "u16") +
                                    (first ? " first" : " best");
            const auto oracle = naive_deviation(g, v, run, first, ws);
            std::uint64_t dense_moves = 0, budget_moves = 0;
            const auto want =
                first ? dense.first_deviation(v, run.model, ds, run.include_deletions,
                                              &dense_moves)
                      : dense.best_deviation(v, run.model, ds, run.include_deletions,
                                             &dense_moves);
            const auto got =
                first ? budgeted.first_deviation(v, run.model, bs, run.include_deletions,
                                                 &budget_moves)
                      : budgeted.best_deviation(v, run.model, bs, run.include_deletions,
                                                &budget_moves);
            expect_dev_eq(oracle, want, ctx + " dense-vs-oracle");
            expect_dev_eq(oracle, got, ctx + " budgeted-vs-oracle");
            EXPECT_EQ(dense_moves, budget_moves) << ctx;
            if (!first) EXPECT_EQ(dense_moves, full_moves) << ctx;
            if (HasFatalFailure()) return;
          }
        }
      }
    }
  }
}

// ------------------------------------------------------- SIMD extremes

/// Budgeted certificates must be level-invariant AND dense-identical with
/// the dispatch pinned to scalar and to the widest level this CPU runs.
TEST(RowCache, SimdExtremesParity) {
  const SimdLevel saved = simd_active_level();
  std::vector<SimdLevel> levels{SimdLevel::Scalar};
  if (simd_max_level() != SimdLevel::Scalar) levels.push_back(simd_max_level());
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Xoshiro256ss rng(seed * 31);
    const Vertex n = static_cast<Vertex>(20 + seed * 6);
    const Graph g = random_connected_gnm(n, 2 * n, rng);
    for (const RunSpec& run : kRuns) {
      for (const WidthPolicy width : kWidths) {
        for (const SimdLevel level : levels) {
          ASSERT_EQ(simd_set_level(level), level);
          const std::string ctx = "seed=" + std::to_string(seed) + " run=" + run.name +
                                  " level=" + simd_level_name(level);
          check_parity(g, run, width, forcing_budget(n), ctx);
          if (HasFatalFailure()) {
            simd_set_level(saved);
            return;
          }
        }
      }
    }
  }
  simd_set_level(saved);
}

// ------------------------------------------------------- eviction thrash

// Budget one row above the cache's two-block minimum: every scan stage
// refetches through a three-slot window. The certificate must not move a
// byte, and the cache must actually have thrashed.
TEST(RowCache, EvictionThrashParity) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Xoshiro256ss rng(seed * 977);
    const Vertex n = static_cast<Vertex>(24 + seed * 5);
    const Graph g = random_connected_gnm(n, 2 * n, rng);
    for (const RunSpec& run : kRuns) {
      const std::string ctx = "seed=" + std::to_string(seed) + " run=" + run.name;
      check_parity(g, run, WidthPolicy::ForceU16, thrash_budget(n), ctx);
      if (HasFatalFailure()) return;
    }
    // The thrash is observable: a single-scratch engine pass leaves
    // eviction marks (any sum scan materializes ≥ deg + survivors rows
    // through 3 slots).
    ResourceConfig res;
    res.width = WidthPolicy::ForceU16;
    res.mem_budget = thrash_budget(n);  // three single-row u16 blocks per lane
    const SwapEngine engine(g, res);
    ASSERT_EQ(engine.budget_policy().storage_for(n, DistWidth::U16), RowStorage::Budgeted);
    SwapEngine::Scratch scratch;
    std::uint64_t dummy = 0;
    for (Vertex v = 0; v < n; ++v) {
      (void)engine.best_deviation(v, UsageCost::Sum, scratch, false, &dummy);
    }
    EXPECT_GT(scratch.row_cache_stats().evictions, 0u) << "seed=" << seed;
  }
}

// ------------------------------------------------------- prune soundness

// Property: a row the budgeted scan never materialized can never have
// mattered. The cache's context_filled() log records every row the scan
// filled (eviction-proof, unlike residency), so its complement over the
// candidate set is exactly the pruned set; every pruned candidate y is
// re-verified by BFS to be non-improving for EVERY removed edge w — the
// exactness argument of DESIGN.md §16 checked instance by instance, under
// a deliberately tight (thrash-prone) half-slab budget.
void check_prune_soundness(const Graph& g, UsageCost model, const std::string& name) {
  const Vertex n = g.num_vertices();
  ResourceConfig res;
  res.width = WidthPolicy::ForceU16;
  res.mem_budget = static_cast<std::uint64_t>(n) * n;  // half the u16 slab
  const SwapEngine engine(g, res);
  ASSERT_EQ(engine.budget_policy().storage_for(n, DistWidth::U16), RowStorage::Budgeted);
  SwapEngine::Scratch scratch;
  BfsWorkspace ws;

  for (Vertex v = 0; v < n; ++v) {
    const std::uint64_t old_cost = vertex_cost(g, v, model, ws);
    const auto dev = engine.best_deviation(v, model, scratch, /*include_deletions=*/false);
    if (dev) {
      EXPECT_EQ(dev->cost_before, old_cost) << name << " v=" << v;
    }
    const auto& cache = scratch.provider16().cache();
    std::vector<std::uint8_t> filled(n, 0);
    for (const Vertex s : cache.context_filled()) filled[s] = 1;

    std::vector<std::uint8_t> is_nbr(n, 0);
    is_nbr[v] = 1;
    for (const Vertex w : g.neighbors(v)) is_nbr[w] = 1;
    for (Vertex y = 0; y < n; ++y) {
      if (is_nbr[y] != 0 || filled[y] != 0) continue;
      // y's row never materialized — every swap toward y must be
      // non-improving (and no better than the scan's best, which is
      // implied: best, when present, is strictly improving).
      for (const Vertex w : g.neighbors(v)) {
        Graph h = g;
        apply_swap(h, EdgeSwap{v, w, y});
        const std::uint64_t after = vertex_cost(h, v, model, ws);
        EXPECT_GE(after, old_cost)
            << name << ": pruned candidate improves — v=" << v << " remove=" << w
            << " add=" << y << " old=" << old_cost << " new=" << after;
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(RowCache, PruneSoundnessTorusMax) {
  check_prune_soundness(rotated_torus(4).graph(), UsageCost::Max, "torus4/max");
}

TEST(RowCache, PruneSoundnessTorusSum) {
  check_prune_soundness(rotated_torus(4).graph(), UsageCost::Sum, "torus4/sum");
}

TEST(RowCache, PruneSoundnessGnm) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Xoshiro256ss rng(seed * 13);
    const Graph g = random_connected_gnm(30, 60, rng);
    check_prune_soundness(g, UsageCost::Max, "gnm/max seed=" + std::to_string(seed));
    check_prune_soundness(g, UsageCost::Sum, "gnm/sum seed=" + std::to_string(seed));
  }
}

// ---------------------------------------------------- adaptive promotion

/// Adaptive rows equal dense rows for every source, before and after the
/// promotion; the promotion fires on exactly the (⌈n/64⌉+1)-th distinct
/// miss (re-reads are hits and never count), and a prefetch promotes
/// instead of filling when its misses would pass the limit.
template <typename Dist>
void check_adaptive_promotion(const Graph& g, const std::string& name) {
  constexpr Dist kInf = kSearchInfFor<Dist>;
  constexpr Dist kMax = kMaxFiniteFor<Dist>;
  const CsrGraph csr(g);
  const Vertex n = csr.num_vertices();
  const Vertex limit = WidthAndBudgetPolicy::rows_before_promotion(n);
  BatchBfsWorkspace ws;
  AlignedVec<Dist> dense_slab, adaptive_slab;
  DistanceProvider<Dist> dense, adaptive;
  for (const Vertex masked : {Vertex{0}, n / 2, n - 1}) {
    const std::string ctx = name + " masked=" + std::to_string(masked);
    ASSERT_TRUE(dense.begin(csr, masked, kInf, kMax, RowStorage::Dense, 0, dense_slab, ws));
    ASSERT_TRUE(
        adaptive.begin(csr, masked, kInf, kMax, RowStorage::Adaptive, 0, adaptive_slab, ws));
    const RowCacheStats before = adaptive.cache_stats();
    for (Vertex i = 0; i < n; ++i) {
      const Vertex source = static_cast<Vertex>((std::uint64_t{i} * 37 + 11) % n);
      for (int read = 0; read < 2; ++read) {
        const Dist* got = adaptive.row(source, ws);
        ASSERT_NE(got, nullptr) << ctx;
        const Dist* want = dense.row(source, ws);
        ASSERT_TRUE(std::equal(want, want + n, got)) << ctx << " source=" << source;
        const bool promoted = i >= limit;
        ASSERT_EQ(adaptive.storage(), promoted ? RowStorage::Dense : RowStorage::Adaptive)
            << ctx << " i=" << i;
        ASSERT_EQ(adaptive.cache_stats().promotions - before.promotions, promoted ? 1u : 0u)
            << ctx;
      }
    }
    EXPECT_EQ(adaptive.cache_stats().misses - before.misses, limit) << ctx;
    EXPECT_EQ(adaptive.cache_stats().hits - before.hits, limit) << ctx;

    // Prefetch: `limit` misses stream, re-prefetching them is free, one
    // more miss promotes without filling a row.
    ASSERT_TRUE(
        adaptive.begin(csr, masked, kInf, kMax, RowStorage::Adaptive, 0, adaptive_slab, ws));
    std::vector<Vertex> sources;
    for (Vertex s = 0; s <= limit; ++s) sources.push_back(s);
    const std::span<const Vertex> head(sources.data(), limit);
    const RowCacheStats streamed = adaptive.cache_stats();
    ASSERT_TRUE(adaptive.prefetch(head, ws));
    ASSERT_TRUE(adaptive.prefetch(head, ws));
    EXPECT_EQ(adaptive.storage(), RowStorage::Adaptive) << ctx;
    EXPECT_EQ(adaptive.cache_stats().misses - streamed.misses, limit) << ctx;
    ASSERT_TRUE(adaptive.prefetch(sources, ws));
    EXPECT_EQ(adaptive.storage(), RowStorage::Dense) << ctx;
    EXPECT_EQ(adaptive.cache_stats().misses - streamed.misses, limit) << ctx;
    EXPECT_EQ(adaptive.cache_stats().promotions - streamed.promotions, 1u) << ctx;
    for (Vertex s = 0; s < n; ++s) {
      const Dist* want = dense.row(s, ws);
      ASSERT_TRUE(std::equal(want, want + n, adaptive.row(s, ws))) << ctx << " source=" << s;
    }
  }
}

TEST(RowCache, AdaptiveRowsMatchDenseAcrossThePromotion) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Xoshiro256ss rng(seed * 0xada);
    const Vertex n = static_cast<Vertex>(100 + 50 * seed);  // 2, 3 and 4 rows before promotion
    const Graph g = random_connected_gnm(n, 2 * n, rng);
    const std::string name = "seed=" + std::to_string(seed);
    check_adaptive_promotion<std::uint8_t>(g, name + " u8");
    check_adaptive_promotion<std::uint16_t>(g, name + " u16");
    if (HasFatalFailure()) return;
  }
}

/// A path of 101 vertices plus a leaf (vertex 0) on its center (vertex 1);
/// ids 2, 3, 4, … walk outward from the center alternately left and right.
/// Masking the leaf, the rows of vertices near the center fit u8 (ecc ≤ 51)
/// while the ends' rows (ecc 100) do not: a streamed u8 scan that reads
/// ids in ascending order first meets the cap when it promotes.
Graph centered_path_with_leaf() {
  constexpr Vertex kHalf = 50;
  Graph g(2 * kHalf + 2);
  g.add_edge(0, 1);
  Vertex left = 1, right = 1;
  for (Vertex k = 1; k <= kHalf; ++k) {
    g.add_edge(left, 2 * k);
    g.add_edge(right, 2 * k + 1);
    left = 2 * k;
    right = 2 * k + 1;
  }
  return g;
}

TEST(RowCache, AdaptivePromotionSaturatesAtU8AndTheU16RedoMatchesTheOracle) {
  const Graph g = centered_path_with_leaf();
  const CsrGraph csr(g);
  const Vertex n = g.num_vertices();
  ASSERT_EQ(WidthAndBudgetPolicy::rows_before_promotion(n), 2u);
  BatchBfsWorkspace ws;
  AlignedVec<std::uint8_t> slab;
  DistanceProvider<std::uint8_t> adaptive;
  ASSERT_TRUE(adaptive.begin(csr, /*masked_vertex=*/0, kSearchInf8,
                             kMaxFiniteFor<std::uint8_t>, RowStorage::Adaptive, 0, slab, ws));
  EXPECT_NE(adaptive.row(1, ws), nullptr);
  EXPECT_NE(adaptive.row(2, ws), nullptr);
  EXPECT_EQ(adaptive.row(3, ws), nullptr);  // the promotion's APSP meets the ends
  EXPECT_EQ(adaptive.cache_stats().promotions, 1u);
  DistanceProvider<std::uint8_t> budgeted;  // the same row, streamed, fits
  ASSERT_TRUE(budgeted.begin(csr, 0, kSearchInf8, kMaxFiniteFor<std::uint8_t>,
                             RowStorage::Budgeted, 0, slab, ws));
  EXPECT_NE(budgeted.row(3, ws), nullptr);

  BfsWorkspace bfs;
  for (const RunSpec& run : kRuns) {
    const SwapEngine engine(g, {.width = WidthPolicy::ForceU8});
    ASSERT_EQ(engine.budget_policy().storage_for(n, DistWidth::U8, /*stop_at_first=*/true),
              RowStorage::Adaptive);
    SwapEngine::Scratch scratch;
    const auto got = engine.first_deviation(0, run.model, scratch, run.include_deletions);
    expect_dev_eq(naive_deviation(g, 0, run, /*first=*/true, bfs), got, run.name);
    EXPECT_EQ(engine.width_fallbacks(), 1u) << run.name;
    EXPECT_EQ(scratch.provider8().cache_stats().promotions, 1u) << run.name;
  }
}

/// The oracle's move count of a first-improvement scan: every candidate of
/// the neighbors before the witness's, plus the witness's own prefix in
/// naive scan order (the deletion first under the max deletion clause,
/// then fresh edges by ascending id).
std::uint64_t oracle_first_moves(const Graph& g, Vertex v, const RunSpec& run,
                                 const std::optional<Deviation>& dev) {
  const Vertex n = g.num_vertices();
  const std::uint64_t deg = g.degree(v);
  const std::uint64_t del = run.model == UsageCost::Max && run.include_deletions ? 1 : 0;
  const std::uint64_t per_edge = del + (n - 1 - deg);
  if (!dev) return deg * per_edge;
  std::uint64_t moves = 0;
  for (const Vertex w : g.neighbors(v)) {
    if (w != dev->swap.remove_w) {
      moves += per_edge;
      continue;
    }
    moves += del;
    if (dev->kind == Deviation::Kind::NonCriticalDelete) return moves;
    for (Vertex x = 0; x <= dev->swap.add_w; ++x) {
      if (x != v && !g.has_edge(v, x)) ++moves;
    }
    return moves;
  }
  ADD_FAILURE() << "witness edge is not incident to v";
  return 0;
}

// Engine level: an unbudgeted (adaptive) first_deviation — verdict,
// witness and moves_checked — equals the oracle and a budgeted engine's,
// on gnm movers (stop a few rows in), star leaves (sum: read every row, so
// promote) and the clean torus k = 12 (max: the far filter stops early),
// at both widths.
TEST(RowCache, AdaptiveFirstDeviationMatchesOracleAndBudgeted) {
  struct Case {
    Graph g;
    std::string name;
    std::vector<Vertex> agents;
  };
  std::vector<Case> cases;
  {
    Xoshiro256ss rng(0xf1257);
    Graph g = random_connected_gnm(150, 300, rng);
    std::vector<Vertex> agents(150);
    std::iota(agents.begin(), agents.end(), Vertex{0});
    cases.push_back({std::move(g), "gnm150", std::move(agents)});
  }
  cases.push_back({star(150), "star150", {1, 2, 3, 75, 148, 149}});
  cases.push_back({rotated_torus(12).graph(), "torus12", {0, 1, 143, 287}});

  BfsWorkspace bfs;
  std::uint64_t promotions = 0;
  for (const Case& c : cases) {
    const Vertex n = c.g.num_vertices();
    for (const RunSpec& run : kRuns) {
      std::vector<std::optional<Deviation>> oracle;
      for (const Vertex v : c.agents) oracle.push_back(naive_deviation(c.g, v, run, true, bfs));
      for (const WidthPolicy width : kWidths) {
        const SwapEngine adaptive(c.g, {.width = width});
        const SwapEngine budgeted(c.g, {.width = width, .mem_budget = forcing_budget(n)});
        ASSERT_EQ(adaptive.budget_policy().storage_for(n, adaptive.preferred_width(), true),
                  RowStorage::Adaptive);
        ASSERT_EQ(budgeted.budget_policy().storage_for(n, budgeted.preferred_width(), true),
                  RowStorage::Budgeted);
        SwapEngine::Scratch as, bs;
        for (std::size_t i = 0; i < c.agents.size(); ++i) {
          const Vertex v = c.agents[i];
          const std::string ctx = c.name + " v=" + std::to_string(v) + " run=" + run.name +
                                  " width=" + (width == WidthPolicy::ForceU8 ? "u8" : "u16");
          std::uint64_t adaptive_moves = 0, budget_moves = 0;
          const auto got =
              adaptive.first_deviation(v, run.model, as, run.include_deletions, &adaptive_moves);
          const auto want =
              budgeted.first_deviation(v, run.model, bs, run.include_deletions, &budget_moves);
          expect_dev_eq(oracle[i], got, ctx + " adaptive-vs-oracle");
          expect_dev_eq(want, got, ctx + " adaptive-vs-budgeted");
          EXPECT_EQ(adaptive_moves, oracle_first_moves(c.g, v, run, oracle[i])) << ctx;
          EXPECT_EQ(adaptive_moves, budget_moves) << ctx;
          if (HasFatalFailure()) return;
        }
        EXPECT_EQ(bs.row_cache_stats().promotions, 0u) << c.name;
        promotions += as.row_cache_stats().promotions;
      }
    }
  }
  EXPECT_GT(promotions, 0u);  // the star leaves' sum scans read every row
}

// ------------------------------------------------------ dynamics parity

// run_dynamics (which runs the engine at every n) at n = 600: the
// unbudgeted run's first-improvement scans are adaptive, a budget one
// byte below the u8 slab per lane makes them budgeted; moves, passes,
// convergence and the final graph must not move. Registered as the
// first_scan_dynamics CTest entry only (≈20 s: the budgeted sum quiet
// passes stream every row one traversal at a time).
TEST(FirstScanDynamics, AdaptiveTrajectoryMatchesBudgeted) {
  constexpr Vertex n = 600;
  Xoshiro256ss rng(0x600);
  const Graph start = random_connected_gnm(n, 2 * n, rng);
  const ResourceConfig budgeted{.mem_budget = ThreadPool::global().size() * (n * n - 1ull)};
  for (const DistWidth w : {DistWidth::U8, DistWidth::U16}) {
    EXPECT_EQ(WidthAndBudgetPolicy{ResourceConfig{}}.storage_for(n, w, /*stop_at_first=*/true),
              RowStorage::Adaptive);
    EXPECT_EQ(WidthAndBudgetPolicy{budgeted}.storage_for(n, w, /*stop_at_first=*/true),
              RowStorage::Budgeted);
  }
  for (const RunSpec& run : kRuns) {
    DynamicsConfig config;
    config.cost = run.model;
    config.allow_neutral_deletions = run.include_deletions;
    const DynamicsResult adaptive = run_dynamics(start, config);
    config.resources = budgeted;
    const DynamicsResult streamed = run_dynamics(start, config);
    EXPECT_TRUE(adaptive.converged) << run.name;
    EXPECT_GT(adaptive.moves, 0u) << run.name;
    EXPECT_EQ(streamed.moves, adaptive.moves) << run.name;
    EXPECT_EQ(streamed.passes, adaptive.passes) << run.name;
    EXPECT_EQ(streamed.converged, adaptive.converged) << run.name;
    EXPECT_EQ(graph_fingerprint(streamed.graph), graph_fingerprint(adaptive.graph)) << run.name;
    EXPECT_EQ(streamed.graph.edges(), adaptive.graph.edges()) << run.name;
  }
}

// ------------------------------------------------------------ facade

// The Instance facade must route RunConfig.resources into the same
// budgeted machinery (same bytes as the free-function path).
TEST(RowCache, FacadeRoutesBudget) {
  const Instance inst = Instance::torus(5);
  RunConfig run;
  run.model = UsageCost::Max;
  run.include_deletions = true;
  const ShardedCertificate dense = inst.certify(run);
  RunConfig capped = run;
  capped.resources.mem_budget = forcing_budget(inst.num_vertices());
  const ShardedCertificate budgeted = inst.certify(capped);
  expect_cert_eq(dense, budgeted, "facade torus5");
  EXPECT_TRUE(dense.certificate.is_equilibrium);
}

}  // namespace
}  // namespace bncg
