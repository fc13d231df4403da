// Masked APSP by repair (DESIGN.md §5): the G − v matrix derived from the
// snapshot's one unmasked APSP (csr_apsp_capped_without) must equal the
// masked traversal csr_apsp_capped(…, v, …) byte for byte and saturation
// verdict for verdict, for every v, at u8 and u16 — on connected and
// disconnected gnm, trees, the rotated torus, stars, brooms, BA, complete
// and bipartite graphs, an isolated v, the cycle whose G − v outgrows u8,
// and the path whose base outgrows u8 (where the provider falls back to the
// traversal). The engine half pins certificates, width fallbacks and
// per-agent deviations of the shared lazy base against the traversal the
// budget fallback runs, and rebuild() against a fresh engine. CMakeLists
// runs the whole DerivedApsp* filter at BNCG_THREADS 1 and 4
// (derived_apsp_threads1/4): the base is built by whichever lane asks
// first, so both counts must certify identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
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

/// Derived-vs-traversed parity of every v at width Dist, and the repaired
/// count = exactly the pairs v's removal changes (the repair touches no
/// pair it need not). Returns the number of v whose G − v saturated (both
/// ways), or -1 when the base itself saturates (the primitive's
/// precondition fails; nothing to compare).
template <typename Dist>
int check_every_vertex(const Graph& g, const std::string& name) {
  constexpr Dist kInf = inf_for<Dist>();
  constexpr Dist kMax = max_finite_for<Dist>();
  const CsrGraph csr(g);
  const Vertex n = csr.num_vertices();
  const std::size_t cells = static_cast<std::size_t>(n) * n;
  BatchBfsWorkspace ws;
  std::vector<Dist> full(cells), traversed(cells), derived(cells);
  if (!csr_apsp_capped<Dist>(csr, MaskedEdge{}, full.data(), ws, kNoVertex, kInf, kMax)) {
    return -1;
  }
  int saturated = 0;
  for (Vertex v = 0; v < n; ++v) {
    const std::string ctx = name + " v=" + std::to_string(v) + " width=" +
                            (sizeof(Dist) == 1 ? "u8" : "u16");
    const bool want = csr_apsp_capped<Dist>(csr, MaskedEdge{}, traversed.data(), ws, v, kInf, kMax);
    std::uint64_t repaired = 0;
    const bool got = csr_apsp_capped_without<Dist>(csr, full.data(), v, derived.data(), ws, kInf,
                                                   kMax, &repaired);
    EXPECT_EQ(want, got) << ctx;
    if (!want) {
      ++saturated;
      continue;
    }
    std::uint64_t changed = 0;
    for (Vertex x = 0; x < n; ++x) {
      for (Vertex u = 0; u < n; ++u) {
        const std::size_t i = static_cast<std::size_t>(x) * n + u;
        changed += x != v && u != v && traversed[i] != full[i] ? 1 : 0;
      }
    }
    EXPECT_EQ(repaired, changed) << ctx;
    const auto [t, d] = std::mismatch(traversed.begin(), traversed.end(), derived.begin());
    if (t != traversed.end()) {
      const std::size_t i = static_cast<std::size_t>(t - traversed.begin());
      ADD_FAILURE() << ctx << " x=" << i / n << " u=" << i % n << ": traversed " << +*t
                    << ", derived " << +*d;
      return -2;
    }
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

// The provider derives from a usable base and counts it.
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
    EXPECT_TRUE(std::equal(want.begin(), want.end(), slab.begin())) << v;
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

}  // namespace
}  // namespace bncg
