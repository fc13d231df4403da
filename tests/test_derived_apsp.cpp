// Masked APSP by repair (DESIGN.md §5): every row of G − v derived from the
// snapshot's one unmasked APSP (csr_row_without) must equal the masked
// traversal csr_apsp_capped(…, v, …) byte for byte at every column but v
// (which keeps d(x, v)), and saturate exactly where the traversal does, for
// every v, at u8 and u16 — on connected and disconnected gnm, trees, the
// rotated torus, stars, brooms, BA, complete and bipartite graphs, an
// isolated v, the cycle whose G − v outgrows u8, and the path whose base
// outgrows u8 (where the provider falls back to the traversal). The engine
// half pins certificates, width fallbacks and per-agent deviations of the
// shared base against the traversal the budget fallback runs, and
// rebuild() against a fresh engine. CMakeLists runs the whole DerivedApsp*
// filter at BNCG_THREADS 1 and 4 (derived_apsp_threads1/4): the base is
// built on the pool or by whichever lane asks first, so both counts must
// certify identically.
//
// The RowsByReference* half (rows_by_reference_threads1/4) pins the
// provider's by-reference rows: each equals the traversal's row at every
// column but v, the affected_rows mask lists exactly the rows that differ,
// the neighbor fold is pinned at column v, the whole-matrix width verdict
// takes the eager path without saturating where the neighbor bound fails,
// and counts a saturation in rows no scan reads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/dist_provider.hpp"
#include "core/instance.hpp"
#include "core/swap.hpp"
#include "core/swap_engine.hpp"
#include "gen/classic.hpp"
#include "gen/paper.hpp"
#include "gen/random.hpp"
#include "graph/bfs_batch.hpp"
#include "graph/dist_width.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace bncg {
namespace {

template <typename Dist>
constexpr Dist inf_for() {
  return std::is_same_v<Dist, std::uint8_t> ? kSearchInf8 : kInfDist16;
}

template <typename Dist>
constexpr Dist max_finite_for() {
  return std::is_same_v<Dist, std::uint8_t> ? kMaxFiniteFor<std::uint8_t>
                                            : static_cast<std::uint16_t>(kInfDist16 - 1);
}

/// Row-by-row derived-vs-traversed parity of every v at width Dist, and
/// the repaired count = exactly the pairs v's removal changes (the repair
/// touches no pair it need not). Returns the number of v whose G − v
/// saturated (both ways: the derivation saturates when any row does), or -1
/// when the base itself saturates (the primitive's precondition fails;
/// nothing to compare).
template <typename Dist>
int check_every_vertex(const Graph& g, const std::string& name) {
  constexpr Dist kInf = inf_for<Dist>();
  constexpr Dist kMax = max_finite_for<Dist>();
  const CsrGraph csr(g);
  const Vertex n = csr.num_vertices();
  const std::size_t cells = static_cast<std::size_t>(n) * n;
  BatchBfsWorkspace ws;
  std::vector<Dist> full(cells), traversed(cells), derived(n);
  if (!csr_apsp_capped<Dist>(csr, MaskedEdge{}, full.data(), ws, kNoVertex, kInf, kMax)) {
    return -1;
  }
  int saturated = 0;
  for (Vertex v = 0; v < n; ++v) {
    const std::string ctx = name + " v=" + std::to_string(v) + " width=" +
                            (sizeof(Dist) == 1 ? "u8" : "u16");
    const bool want = csr_apsp_capped<Dist>(csr, MaskedEdge{}, traversed.data(), ws, v, kInf, kMax);
    std::uint64_t repaired = 0;
    bool got = true;
    std::uint64_t changed = 0;
    for (Vertex x = 0; x < n; ++x) {
      const std::size_t at = static_cast<std::size_t>(x) * n;
      if (!csr_row_without<Dist>(csr, full.data() + at, v, derived.data(), ws, kInf, kMax,
                                 x == v ? nullptr : &repaired)) {
        got = false;
        continue;
      }
      if (!want) continue;
      for (Vertex u = 0; u < n; ++u) {
        changed += x != v && u != v && traversed[at + u] != full[at + u] ? 1 : 0;
        const Dist expect = u == v ? full[at + u] : traversed[at + u];
        if (derived[u] != expect) {
          ADD_FAILURE() << ctx << " x=" << x << " u=" << u << ": traversed " << +expect
                        << ", derived " << +derived[u];
          return -2;
        }
      }
    }
    EXPECT_EQ(want, got) << ctx;
    if (!want) {
      ++saturated;
      continue;
    }
    EXPECT_EQ(repaired, changed) << ctx;
  }
  return saturated;
}

struct Named {
  Graph g;
  std::string name;
};

std::vector<Named> structured_instances() {
  std::vector<Named> out;
  Xoshiro256ss rng(0xde41);
  out.push_back({random_connected_gnm(200, 400, rng), "gnm200"});
  out.push_back({random_gnm(200, 180, rng), "gnm200-disconnected"});
  out.push_back({random_gnm(150, 300, rng), "gnm150"});
  out.push_back({random_tree(200, rng), "tree200"});
  out.push_back({rotated_torus(12).graph(), "torus12"});
  out.push_back({star(64), "star64"});
  out.push_back({broom_graph(4, 6, 5), "broom"});
  out.push_back({barabasi_albert(200, 2, rng), "ba200"});
  out.push_back({complete(40), "complete40"});
  out.push_back({complete_bipartite(10, 30), "bipartite10x30"});
  out.push_back({cycle(60), "cycle60"});
  out.push_back({grid(9, 11), "grid9x11"});
  {
    // An isolated vertex (v = 0) next to a connected block.
    Graph g(101);
    Xoshiro256ss block_rng(7);
    const Graph block = random_connected_gnm(100, 220, block_rng);
    for (const auto& [a, b] : block.edges()) g.add_edge(a + 1, b + 1);
    out.push_back({std::move(g), "isolated0"});
  }
  return out;
}

TEST(DerivedApsp, MatchesMaskedTraversalOnEveryVertex) {
  for (const Named& inst : structured_instances()) {
    EXPECT_EQ(check_every_vertex<std::uint16_t>(inst.g, inst.name), 0) << inst.name;
    EXPECT_EQ(check_every_vertex<std::uint8_t>(inst.g, inst.name), 0) << inst.name;
  }
}

TEST(DerivedApsp, RandomGnmSweep) {
  Xoshiro256ss rng(0x5eed5);
  for (int trial = 0; trial < 40; ++trial) {
    const Vertex n = 20 + static_cast<Vertex>(rng.below(60));
    const std::size_t m = n - 5 + rng.below(2 * n);
    const Graph g = random_gnm(n, m, rng);
    const std::string name = "gnm#" + std::to_string(trial);
    EXPECT_EQ(check_every_vertex<std::uint8_t>(g, name), 0);
    EXPECT_EQ(check_every_vertex<std::uint16_t>(g, name), 0);
  }
}

// cycle(100): the base fits u8 (diameter 50), but every G − v is a path of
// 99 vertices, whose far pairs (up to 98) exceed the u8 cap of 61: the
// derived fill must report saturation exactly where the traversal does.
TEST(DerivedApsp, CycleOutgrowsU8OnlyWithoutV) {
  const Graph g = cycle(100);
  EXPECT_EQ(check_every_vertex<std::uint8_t>(g, "cycle100"), 100);
  EXPECT_EQ(check_every_vertex<std::uint16_t>(g, "cycle100"), 0);
}

// path(63): the base saturates u8 (d(0, 62) = 62 > 61) while every G − v,
// the ends' included, fits. The primitive cannot run; the provider must fall
// back to the traversal.
TEST(DerivedApsp, SaturatedBaseFallsBackToTheTraversal) {
  const Graph g = path(63);
  EXPECT_EQ(check_every_vertex<std::uint8_t>(g, "path63"), -1);
  EXPECT_EQ(check_every_vertex<std::uint16_t>(g, "path63"), 0);

  const CsrGraph csr(g);
  const Vertex n = csr.num_vertices();
  BatchBfsWorkspace ws;
  SharedApsp<std::uint8_t> shared;
  EXPECT_EQ(shared.get(csr, kSearchInf8, kMaxFiniteFor<std::uint8_t>, ws), nullptr);
  std::vector<std::uint8_t> want(static_cast<std::size_t>(n) * n);
  AlignedVec<std::uint8_t> slab;
  DistanceProvider<std::uint8_t> provider;
  for (Vertex v = 0; v < n; ++v) {
    ASSERT_TRUE(csr_apsp_capped<std::uint8_t>(csr, MaskedEdge{}, want.data(), ws, v, kSearchInf8,
                                              kMaxFiniteFor<std::uint8_t>))
        << v;
    ASSERT_TRUE(provider.begin(csr, v, kSearchInf8, kMaxFiniteFor<std::uint8_t>,
                               RowStorage::Dense, 0, slab, ws, &shared))
        << v;
    EXPECT_TRUE(std::equal(want.begin(), want.end(), slab.begin())) << v;
  }
  EXPECT_EQ(provider.cache_stats().slabs_traversed, n);
  EXPECT_EQ(provider.cache_stats().slabs_derived, 0u);
}

// The provider serves rows from a usable base and counts it.
TEST(DerivedApsp, ProviderDerivesFromAFittingBase) {
  Xoshiro256ss rng(0xabc);
  const Graph g = random_connected_gnm(120, 240, rng);
  const CsrGraph csr(g);
  const Vertex n = csr.num_vertices();
  BatchBfsWorkspace ws;
  SharedApsp<std::uint16_t> shared;
  DistanceProvider<std::uint16_t> provider;
  AlignedVec<std::uint16_t> slab;
  std::vector<std::uint16_t> want(static_cast<std::size_t>(n) * n);
  for (Vertex v = 0; v < n; v += 7) {
    ASSERT_TRUE(csr_apsp_capped<std::uint16_t>(csr, MaskedEdge{}, want.data(), ws, v, kInfDist16,
                                               kInfDist16 - 1));
    ASSERT_TRUE(provider.begin(csr, v, kInfDist16, kInfDist16 - 1, RowStorage::Dense, 0, slab, ws,
                               &shared));
    for (Vertex x = 0; x < n; ++x) {
      std::vector<std::uint16_t> got(provider.row(x, ws), provider.row(x, ws) + n);
      got[v] = kInfDist16;  // column v holds d(x, v) by reference
      EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin() + std::size_t{x} * n))
          << v << " x=" << x;
    }
  }
  EXPECT_EQ(provider.cache_stats().slabs_derived, (n + 6) / 7);
  EXPECT_EQ(provider.cache_stats().slabs_traversed, 0u);
}

// ----------------------------------------------------------- engine parity

struct RunSpec {
  UsageCost model;
  bool include_deletions;
  bool stop_on_violation;
  const char* name;
};

constexpr RunSpec kRuns[] = {
    {UsageCost::Sum, false, false, "sum"},
    {UsageCost::Max, false, false, "max"},
    {UsageCost::Max, true, false, "max+del"},
    {UsageCost::Sum, false, true, "sum/stop"},
    {UsageCost::Max, true, true, "max+del/stop"},
};

/// A budget whose lane share holds one dense slab at width `w` but whose
/// total cannot hold the shared base beside every lane's slab: dense scans
/// stay dense and traverse G − v (the fallback).
std::uint64_t fallback_budget(Vertex n, DistWidth w) {
  const std::uint64_t slab = std::uint64_t{n} * n * (w == DistWidth::U8 ? 1 : 2);
  return ThreadPool::global().size() * slab + slab - 1;
}

/// Connected gnm with a pendant path of `tail` vertices hung at vertex 0.
Graph gnm_with_pendant_path(Vertex n, Vertex tail, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  const Graph core = random_connected_gnm(n, 2 * n, rng);
  Graph g(n + tail);
  for (const auto& [a, b] : core.edges()) g.add_edge(a, b);
  Vertex prev = 0;
  for (Vertex i = 0; i < tail; ++i) {
    g.add_edge(prev, n + i);
    prev = n + i;
  }
  return g;
}

/// Connected gnm with a cycle of `len` vertices through vertex 0: the base
/// fits u8, but removing a cycle vertex stretches the cycle into a path
/// whose far pairs exceed the u8 cap (u8 → u16 redos on a derived slab).
Graph gnm_with_hanging_cycle(Vertex n, Vertex len, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  const Graph core = random_connected_gnm(n, 2 * n, rng);
  Graph g(n + len - 1);
  for (const auto& [a, b] : core.edges()) g.add_edge(a, b);
  Vertex prev = 0;
  for (Vertex i = 0; i + 1 < len; ++i) {
    g.add_edge(prev, n + i);
    prev = n + i;
  }
  g.add_edge(prev, 0);
  return g;
}

struct EngineCase {
  Graph g;
  std::string name;
  WidthPolicy width;
};

std::vector<EngineCase> engine_cases() {
  std::vector<EngineCase> out;
  Xoshiro256ss rng(0x9a9);
  out.push_back({random_connected_gnm(256, 512, rng), "gnm256", WidthPolicy::Auto});
  const DiagonalTorus torus = rotated_torus(12);
  out.push_back({torus.graph(), "torus12", WidthPolicy::Auto});
  Graph perturbed = torus.graph();
  apply_swap(perturbed, EdgeSwap{0, perturbed.neighbors(0).front(), torus.id({12, 12})});
  out.push_back({std::move(perturbed), "torus12-perturbed", WidthPolicy::Auto});
  out.push_back({gnm_with_pendant_path(96, 64, 3), "pendant-path/u8", WidthPolicy::ForceU8});
  out.push_back({gnm_with_hanging_cycle(96, 100, 5), "hanging-cycle/u8", WidthPolicy::ForceU8});
  return out;
}

void expect_dev_eq(const std::optional<Deviation>& want, const std::optional<Deviation>& got,
                   const std::string& ctx) {
  ASSERT_EQ(want.has_value(), got.has_value()) << ctx;
  if (!want) return;
  EXPECT_EQ(want->swap, got->swap) << ctx;
  EXPECT_EQ(want->cost_before, got->cost_before) << ctx;
  EXPECT_EQ(want->cost_after, got->cost_after) << ctx;
  EXPECT_EQ(want->kind, got->kind) << ctx;
}

// Instance::certify with the shared base (unbudgeted) against the same run
// under the fallback budget (every dense slab traversed): certificates and
// width fallbacks must be identical. The u8 cases must actually redo.
TEST(DerivedApspEngine, CertifyMatchesTheTraversalFallback) {
  for (const EngineCase& c : engine_cases()) {
    const Instance inst(c.g);
    const Vertex n = c.g.num_vertices();
    std::uint64_t fallbacks = 0;
    for (const RunSpec& spec : kRuns) {
      const std::string ctx = c.name + " " + spec.name;
      RunConfig run;
      run.model = spec.model;
      run.include_deletions = spec.include_deletions;
      run.stop_on_violation = spec.stop_on_violation;
      run.resources.width = c.width;
      const ShardedCertificate derived = inst.certify(run);
      RunConfig capped = run;
      capped.resources.mem_budget = fallback_budget(n, derived.width);
      const ShardedCertificate traversed = inst.certify(capped);
      EXPECT_EQ(derived.certificate.is_equilibrium, traversed.certificate.is_equilibrium) << ctx;
      EXPECT_EQ(derived.width, traversed.width) << ctx;
      if (!spec.stop_on_violation) {
        // Stop-on-violation runs abort the other lanes at a timing-dependent
        // point, so only their verdict is pinned across pool sizes.
        expect_dev_eq(traversed.certificate.witness, derived.certificate.witness, ctx);
        EXPECT_EQ(derived.certificate.moves_checked, traversed.certificate.moves_checked) << ctx;
        EXPECT_EQ(derived.agents_scanned, traversed.agents_scanned) << ctx;
        EXPECT_EQ(derived.width_fallbacks, traversed.width_fallbacks) << ctx;
        fallbacks += derived.width_fallbacks;
      }
    }
    if (c.width == WidthPolicy::ForceU8) EXPECT_GT(fallbacks, 0u) << c.name;
  }
}

// Per agent, serial: the unbudgeted engine derives every dense slab, the
// fallback-budget engine traverses every one, and the deviations, move
// counts and width fallbacks agree.
TEST(DerivedApspEngine, PerAgentParityAndSlabCounters) {
  for (const EngineCase& c : engine_cases()) {
    const Vertex n = c.g.num_vertices();
    const SwapEngine derived(c.g, {.width = c.width});
    const SwapEngine traversed(
        c.g, {.width = c.width, .mem_budget = fallback_budget(n, derived.preferred_width())});
    ASSERT_EQ(traversed.budget_policy().storage_for(n, traversed.preferred_width()),
              RowStorage::Dense);
    SwapEngine::Scratch ds, ts;
    for (const RunSpec& spec : kRuns) {
      if (spec.stop_on_violation) continue;
      for (Vertex v = 0; v < n; v += 3) {
        const std::string ctx = c.name + " " + spec.name + " v=" + std::to_string(v);
        std::uint64_t dm = 0, tm = 0;
        const auto want = traversed.best_deviation(v, spec.model, ts, spec.include_deletions, &tm);
        const auto got = derived.best_deviation(v, spec.model, ds, spec.include_deletions, &dm);
        expect_dev_eq(want, got, ctx);
        EXPECT_EQ(tm, dm) << ctx;
        if (HasFatalFailure()) return;
      }
    }
    EXPECT_EQ(derived.width_fallbacks(), traversed.width_fallbacks()) << c.name;
    const RowCacheStats d = ds.row_cache_stats();
    const RowCacheStats t = ts.row_cache_stats();
    EXPECT_EQ(t.slabs_derived, 0u) << c.name;
    EXPECT_GT(t.slabs_traversed, 0u) << c.name;
    EXPECT_GT(d.slabs_derived, 0u) << c.name;
    if (c.width != WidthPolicy::ForceU8) {
      EXPECT_EQ(d.slabs_traversed, 0u) << c.name;
      EXPECT_EQ(d.slabs_derived, t.slabs_traversed) << c.name;
    } else if (c.name == "pendant-path/u8") {
      // The u8 base saturates: every u8 fill traverses, the u16 redos
      // derive (the fallback engine runs those budgeted: its budget is
      // sized for the u8 slab).
      EXPECT_EQ(d.slabs_traversed, t.slabs_traversed) << c.name;
    }
  }
}

// rebuild() must drop the shared base: after the snapshot changes, every
// agent's best deviation equals a freshly built engine's.
TEST(DerivedApspEngine, RebuildInvalidatesTheSharedBase) {
  Xoshiro256ss rng(0x7eb);
  Graph g = random_connected_gnm(160, 320, rng);
  SwapEngine engine(g);
  SwapEngine::Scratch scratch;
  for (int move = 0; move < 4; ++move) {
    std::optional<Deviation> dev;
    for (Vertex v = 0; v < g.num_vertices() && !dev; ++v) {
      dev = engine.best_deviation(v, UsageCost::Sum, scratch);
    }
    ASSERT_TRUE(dev.has_value()) << move;
    apply_swap(g, dev->swap);
    engine.rebuild(g);
    const SwapEngine fresh(g);
    SwapEngine::Scratch fresh_scratch;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      for (const UsageCost model : {UsageCost::Sum, UsageCost::Max}) {
        const std::string ctx = "move=" + std::to_string(move) + " v=" + std::to_string(v);
        expect_dev_eq(fresh.best_deviation(v, model, fresh_scratch, true),
                      engine.best_deviation(v, model, scratch, true), ctx);
        if (HasFatalFailure()) return;
      }
    }
  }
  EXPECT_EQ(scratch.row_cache_stats().slabs_traversed, 0u);
}


// ------------------------------------------------------ rows by reference

/// Every v of `g` at width Dist through a by-reference provider: the width
/// verdict equals the traversal's; where it fits, every row equals the
/// traversal's at every column but v, and the affected_rows mask lists
/// exactly the rows x ≠ v that differ from the base (plus v itself whenever
/// it has a neighbor). Returns the number of saturating v, -1 when the
/// base saturates.
template <typename Dist>
int check_rows_by_reference(const Graph& g, const std::string& name) {
  constexpr Dist kInf = inf_for<Dist>();
  constexpr Dist kMax = max_finite_for<Dist>();
  const CsrGraph csr(g);
  const Vertex n = csr.num_vertices();
  BatchBfsWorkspace ws;
  SharedApsp<Dist> shared;
  const Dist* full = shared.get(csr, kInf, kMax, ws);
  if (full == nullptr) return -1;
  std::vector<Dist> traversed(static_cast<std::size_t>(n) * n);
  AlignedVec<Dist> slab;
  DistanceProvider<Dist> provider;
  int saturated = 0;
  for (Vertex v = 0; v < n; ++v) {
    const std::string ctx = name + " v=" + std::to_string(v) + " width=" +
                            (sizeof(Dist) == 1 ? "u8" : "u16");
    const bool want = csr_apsp_capped<Dist>(csr, MaskedEdge{}, traversed.data(), ws, v, kInf, kMax);
    const bool got = provider.begin(csr, v, kInf, kMax, RowStorage::Dense, 0, slab, ws, &shared);
    EXPECT_EQ(want, got) << ctx;
    if (!want) {
      ++saturated;
      continue;
    }
    std::vector<Vertex> differ;
    if (!csr.neighbors(v).empty()) differ.push_back(v);
    for (Vertex x = 0; x < n; ++x) {
      const std::size_t at = static_cast<std::size_t>(x) * n;
      const Dist* row = provider.row(x, ws);
      bool changed = false;
      for (Vertex u = 0; u < n; ++u) {
        if (u == v) continue;
        changed |= traversed[at + u] != full[at + u];
        if (row[u] != traversed[at + u]) {
          ADD_FAILURE() << ctx << " x=" << x << " u=" << u << ": traversed "
                        << +traversed[at + u] << ", by reference " << +row[u];
          return -2;
        }
      }
      if (changed && x != v) differ.push_back(x);
    }
    std::sort(differ.begin(), differ.end());
    const std::span<const Vertex> mask = provider.affected();
    EXPECT_TRUE(std::equal(mask.begin(), mask.end(), differ.begin(), differ.end())) << ctx;
  }
  return saturated;
}

TEST(RowsByReference, RowsAndMaskMatchTheTraversalOnEveryVertex) {
  for (const Named& inst : structured_instances()) {
    EXPECT_EQ(check_rows_by_reference<std::uint16_t>(inst.g, inst.name), 0) << inst.name;
    EXPECT_EQ(check_rows_by_reference<std::uint8_t>(inst.g, inst.name), 0) << inst.name;
  }
  EXPECT_EQ(check_rows_by_reference<std::uint8_t>(cycle(100), "cycle100"), 100);
  EXPECT_EQ(check_rows_by_reference<std::uint8_t>(path(63), "path63"), -1);
  Xoshiro256ss rng(0x5eed6);
  for (int trial = 0; trial < 40; ++trial) {
    const Vertex n = 20 + static_cast<Vertex>(rng.below(60));
    const std::size_t m = n - 5 + rng.below(2 * n);
    const Graph g = random_gnm(n, m, rng);
    const std::string name = "gnm#" + std::to_string(trial);
    EXPECT_EQ(check_rows_by_reference<std::uint8_t>(g, name), 0);
    EXPECT_EQ(check_rows_by_reference<std::uint16_t>(g, name), 0);
  }
}

// The neighbor fold of every agent is pinned at column v (min1 = min2 = 0,
// no argmin) and, everywhere else, equals the fold over traversed rows.
template <typename Dist>
void check_fold_pins(const EngineCase& c, WidthPolicy width) {
  const Vertex n = c.g.num_vertices();
  const DistWidth w = width == WidthPolicy::ForceU8 ? DistWidth::U8 : DistWidth::U16;
  const SwapEngine derived(c.g, {.width = width});
  const SwapEngine traversed(c.g, {.width = width, .mem_budget = fallback_budget(n, w)});
  SwapEngine::Scratch ds, ts;
  for (Vertex v = 0; v < n; ++v) {
    const std::string ctx = c.name + " v=" + std::to_string(v) + " width=" +
                            (sizeof(Dist) == 1 ? "u8" : "u16");
    (void)derived.best_deviation(v, UsageCost::Sum, ds);
    (void)traversed.best_deviation(v, UsageCost::Sum, ts);
    if (c.g.neighbors(v).empty()) continue;  // no fold ran
    const auto d = ds.fold_tables<Dist>();
    const auto t = ts.fold_tables<Dist>();
    ASSERT_EQ(d.min1.size(), n) << ctx;
    EXPECT_EQ(d.min1[v], 0) << ctx;
    EXPECT_EQ(d.min2[v], 0) << ctx;
    EXPECT_EQ(d.argmin[v], kNoVertex) << ctx;
    EXPECT_TRUE(std::equal(d.min1.begin(), d.min1.end(), t.min1.begin(), t.min1.end())) << ctx;
    EXPECT_TRUE(std::equal(d.min2.begin(), d.min2.end(), t.min2.begin(), t.min2.end())) << ctx;
    EXPECT_TRUE(std::equal(d.argmin.begin(), d.argmin.end(), t.argmin.begin(), t.argmin.end()))
        << ctx;
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_EQ(derived.width_fallbacks(), 0u) << c.name;
  EXPECT_GT(ds.row_cache_stats().slabs_derived, 0u) << c.name;
  EXPECT_EQ(ts.row_cache_stats().slabs_derived, 0u) << c.name;
}

TEST(RowsByReference, NeighborFoldIsPinnedAtColumnV) {
  for (const EngineCase& c : engine_cases()) {
    if (c.width != WidthPolicy::Auto) continue;  // the u8 redo cases refill at u16
    check_fold_pins<std::uint8_t>(c, WidthPolicy::ForceU8);
    check_fold_pins<std::uint16_t>(c, WidthPolicy::ForceU16);
  }
}

// path(50), v = 10: the base (diameter 49) and every G − v fit u8, but the
// row of 11, first neighbor of the component {11..49}, reaches 38 and
// 2·38 > 61, so the bound cannot clear G − v: begin() repairs every listed
// row up front (but v's own, which is all ∞), and nothing saturates — the
// engine at u8 certifies with 0 fallbacks, like u16.
TEST(RowsByReference, NeighborBoundFailsWithoutSaturating) {
  const Graph g = path(50);
  const CsrGraph csr(g);
  BatchBfsWorkspace ws;
  SharedApsp<std::uint8_t> shared;
  AlignedVec<std::uint8_t> slab;
  DistanceProvider<std::uint8_t> provider;
  ASSERT_TRUE(provider.begin(csr, 10, kSearchInf8, kMaxFiniteFor<std::uint8_t>, RowStorage::Dense,
                             0, slab, ws, &shared));
  EXPECT_EQ(provider.affected().size(), 50u);
  EXPECT_EQ(provider.cache_stats().rows_repaired, 49u);  // the eager path

  // Where the bound holds, begin() repairs only the rows of N(v), which the
  // neighbor fold reads anyway — a leaf's by its shortcut.
  const auto up_front = [&](const Graph& h, Vertex v) {
    const CsrGraph h_csr(h);
    SharedApsp<std::uint8_t> h_shared;
    DistanceProvider<std::uint8_t> lazy;
    EXPECT_TRUE(lazy.begin(h_csr, v, kSearchInf8, kMaxFiniteFor<std::uint8_t>, RowStorage::Dense,
                           0, slab, ws, &h_shared));
    return lazy.cache_stats().rows_repaired;
  };
  EXPECT_EQ(up_front(path(40), 20), 2u);
  EXPECT_EQ(up_front(cycle(30), 0), 2u);
  EXPECT_EQ(up_front(star(30), 0), 29u);

  for (const RunSpec& spec : kRuns) {
    RunConfig run;
    run.model = spec.model;
    run.include_deletions = spec.include_deletions;
    run.stop_on_violation = spec.stop_on_violation;
    run.resources.width = WidthPolicy::ForceU8;
    const ShardedCertificate u8 = Instance(g).certify(run);
    run.resources.width = WidthPolicy::ForceU16;
    const ShardedCertificate u16 = Instance(g).certify(run);
    EXPECT_EQ(u8.width_fallbacks, 0u) << spec.name;
    EXPECT_EQ(u8.certificate.is_equilibrium, u16.certificate.is_equilibrium) << spec.name;
    if (spec.stop_on_violation) continue;
    expect_dev_eq(u16.certificate.witness, u8.certificate.witness, spec.name);
    EXPECT_EQ(u8.certificate.moves_checked, u16.certificate.moves_checked) << spec.name;
  }
}

/// Two pendant paths of `tail` vertices at a and b, joined by v (a–v–b) and
/// by a detour of `detour` edges: in G the tail ends are 2·tail + 2 apart,
/// in G − v 2·tail + detour.
Graph shortcut_with_tails(Vertex tail, Vertex detour) {
  // 0 = v, 1 = a, 2 = b, then the detour's inner vertices, then the tails.
  const Vertex inner = detour - 1;
  Graph g(3 + inner + 2 * tail);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  Vertex prev = 1;
  for (Vertex i = 0; i < inner; ++i) {
    g.add_edge(prev, 3 + i);
    prev = 3 + i;
  }
  g.add_edge(prev, 2);
  for (const Vertex root : {Vertex{1}, Vertex{2}}) {
    prev = root;
    const Vertex first = 3 + inner + (root == 1 ? 0 : tail);
    for (Vertex i = 0; i < tail; ++i) {
      g.add_edge(prev, first + i);
      prev = first + i;
    }
  }
  return g;
}

// The tail ends are 58 apart in G but 66 in G − v (v = 0): u8 saturates
// only in the rows of tail vertices far from a and b, which the max scan
// of v never combines. The width verdict is whole-matrix all the same, so
// the fallback count is the eager derivation's: every agent whose masked
// traversal saturates, on every model.
TEST(RowsByReference, UnreadSaturatingRowStillCountsAFallback) {
  const Graph g = shortcut_with_tails(28, 10);
  const CsrGraph csr(g);
  const Vertex n = csr.num_vertices();
  BatchBfsWorkspace ws;
  std::vector<std::uint8_t> traversed(static_cast<std::size_t>(n) * n);
  ASSERT_TRUE(csr_apsp_capped<std::uint8_t>(csr, MaskedEdge{}, traversed.data(), ws, kNoVertex,
                                            kSearchInf8, kMaxFiniteFor<std::uint8_t>));
  std::uint64_t eager = 0;
  for (Vertex v = 0; v < n; ++v) {
    if (csr.neighbors(v).empty()) continue;
    eager += csr_apsp_capped<std::uint8_t>(csr, MaskedEdge{}, traversed.data(), ws, v, kSearchInf8,
                                           kMaxFiniteFor<std::uint8_t>)
                 ? 0
                 : 1;
  }
  ASSERT_GT(eager, 0u);
  for (const RunSpec& spec : kRuns) {
    if (spec.stop_on_violation) continue;  // stopping scans skip agents
    RunConfig run;
    run.model = spec.model;
    run.include_deletions = spec.include_deletions;
    run.resources.width = WidthPolicy::ForceU8;
    const ShardedCertificate u8 = Instance(g).certify(run);
    run.resources.width = WidthPolicy::ForceU16;
    const ShardedCertificate u16 = Instance(g).certify(run);
    EXPECT_EQ(u8.width_fallbacks, eager) << spec.name;
    expect_dev_eq(u16.certificate.witness, u8.certificate.witness, spec.name);
    EXPECT_EQ(u8.certificate.moves_checked, u16.certificate.moves_checked) << spec.name;
  }
}

}  // namespace
}  // namespace bncg
