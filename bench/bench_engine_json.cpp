// Engine-vs-naive certification throughput, emitted as machine-readable
// JSON so the perf trajectory is tracked across PRs (BENCH_engine.json at
// the repo root; regenerate with bench/run_bench.sh).
//
// For each (n, m, model) the program certifies the same random connected
// G(n, m) instance:
//   * with the delta-evaluation SwapEngine at its auto-selected distance
//     width (the headline engine numbers),
//   * with the width forced to u8 and to u16 — the ratio of those two runs
//     is the width-adaptivity payoff (DESIGN.md §10) on an instance whose
//     diameter fits the 8-bit cap,
//   * through the sharded certification driver (core/certify_sharded.hpp),
//   * and, on the m = 2n rows, with the naive BFS-per-candidate oracle
//     (the dense m = 4n tier skips the oracle — it needs several minutes
//     per run and the m = 2n rows already track that trajectory; its JSON
//     fields are emitted as null).
// Every pair of certifications is asserted identical (verdict and move
// count) before a row is written. Plain std::chrono harness (no
// google-benchmark) so the output format is fully under our control.
//
// Three game-variant sections track the PR-8 k-move engine paths, each
// engine-vs-naive on the same instance with the answers asserted identical
// before a row is written:
//   * "kstability" — whole-graph k-insertion sweeps (k ∈ {1,2,3}) of the
//     star equilibrium (n = 256 and n = 1024), stable at every agent so the
//     sweep runs full length; the exact cover solver is shared code, so the
//     rows isolate the distance machinery the engine accelerates,
//   * "alpha_game" — α-game greedy-deviation scans over an agent sample
//     (engine: one masked APSP per agent; naive: one BFS per candidate
//     move),
//   * "tree_game" — best tree swaps for every agent of a random tree
//     (single-rooting O(n) rerooting sweep vs the component-BFS oracle).
//
// A "row_cache" section (PR 10) prices the budgeted distance provider:
// the same instance is certified dense and under a half-slab memory budget
// (certificates asserted identical), then a single-scratch sweep harvests
// the cache's hit/miss/eviction/peak-bytes counters — the telemetry DESIGN.md
// §16 quotes for the residency-vs-recompute trade.
//
// A "first_scan" section prices the storage plan of first-improvement
// scans: every agent's first_deviation on equilibrate-gnm's G(520, 1040)
// start (mover scans) and its converged graph (quiet scans), sum model, and
// on 32 agents of the clean torus k = 32, max model — each under dense,
// streamed (row cache) and adaptive (stream, then promote) storage, with
// the adaptive run's misses and promotions.
//
// A "masked_apsp" section prices the rows of G − v: per agent, the batched
// masked traversal (csr_apsp_capped with v masked) against the derivation
// of every row from the snapshot's shared unmasked APSP (csr_row_without,
// the base built once and timed separately), on gnm, the rotated torus, a
// random tree, a star and a cycle; the two and their saturation verdicts
// are asserted identical for every timed agent (column v aside, which
// keeps d(x, v)). Its by-reference columns price what the engine's dense
// scans pay instead: the affected-row mask, and the sum and max
// best_deviation per agent over rows served from the base, with the rows
// each repaired.
//
// A second "kernels" section microbenchmarks the dispatched SIMD kernels
// (util/simd.hpp) directly: every simd::Kernels entry at both widths is
// timed at n = 1024 once with the dispatch pinned to scalar and once at the
// startup-active level (cpuid-capped, BNCG_SIMD-overridable), on the same
// inputs and with identical fixed repetition counts, so the per-call ratio
// is a pure ISA effect. Output checksums are asserted equal across the two
// levels — the exactness contract, enforced even inside the bench.
//
// Usage: bench_engine_json [output.json] [max_n]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "bench_json_meta.hpp"
#include "core/certify_sharded.hpp"
#include "core/classic_game.hpp"
#include "core/dist_provider.hpp"
#include "core/dynamics.hpp"
#include "core/equilibrium.hpp"
#include "core/kstability.hpp"
#include "core/swap_engine.hpp"
#include "core/tree_game.hpp"
#include "gen/classic.hpp"
#include "gen/paper.hpp"
#include "gen/random.hpp"
#include "graph/bfs_batch.hpp"
#include "graph/dist_width.hpp"
#include "graph/metrics.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace bncg;
using Clock = std::chrono::steady_clock;

struct Row {
  Vertex n = 0;
  std::size_t m = 0;
  std::string model;
  Vertex diameter = 0;
  std::uint64_t moves = 0;
  std::string width;  // auto-selected preference
  std::uint64_t width_fallbacks = 0;
  double engine_seconds = 0.0;  // auto width
  double u8_seconds = 0.0;
  double u16_seconds = 0.0;
  double sharded_seconds = 0.0;
  std::size_t shards = 0;
  double naive_seconds = -1.0;  // < 0 ⇒ not measured (dense tier)

  [[nodiscard]] double engine_swaps_per_sec() const {
    return static_cast<double>(moves) / engine_seconds;
  }
  [[nodiscard]] double width_speedup() const { return u16_seconds / u8_seconds; }
  [[nodiscard]] bool has_naive() const { return naive_seconds > 0.0; }
  [[nodiscard]] double naive_swaps_per_sec() const {
    return static_cast<double>(moves) / naive_seconds;
  }
  [[nodiscard]] double speedup() const { return naive_seconds / engine_seconds; }
};

template <typename Fn>
double time_seconds(Fn&& fn) {
  const auto start = Clock::now();
  fn();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Repeats fast certifications until ≥ 0.2 s of wall time for a stable
/// rate; reports the repetition count so per-run counters (the engine's
/// width_fallbacks accumulate across certify() calls) can be de-scaled.
template <typename Fn>
double time_repeated(Fn&& fn, std::uint64_t* reps_out = nullptr) {
  std::uint64_t reps = 0;
  double total = 0.0;
  while (total < 0.2 && reps < 1000) {
    total += time_seconds(fn);
    ++reps;
  }
  if (reps_out != nullptr) *reps_out = reps;
  return total / static_cast<double>(reps);
}

Row measure(Vertex n, std::size_t m, UsageCost model, bool measure_naive) {
  Xoshiro256ss rng(0xBE7C ^ n);
  const Graph g = random_connected_gnm(n, m, rng);
  const bool deletions = model == UsageCost::Max;

  Row row;
  row.n = n;
  row.m = m;
  row.model = model == UsageCost::Sum ? "sum" : "max";
  row.diameter = diameter(g);

  const auto check = [&](const EquilibriumCertificate& a, const EquilibriumCertificate& b,
                         const char* what) {
    if (a.is_equilibrium != b.is_equilibrium || a.moves_checked != b.moves_checked) {
      std::cerr << "FATAL: " << what << " mismatch at n=" << n << " m=" << m
                << " model=" << row.model << "\n";
      std::exit(1);
    }
  };

  const SwapEngine engine_auto(g);
  EquilibriumCertificate cert;
  std::uint64_t reps = 0;
  row.engine_seconds =
      time_repeated([&] { cert = engine_auto.certify(model, deletions); }, &reps);
  row.moves = cert.moves_checked;
  row.width = dist_width_name(engine_auto.preferred_width());
  row.width_fallbacks = engine_auto.width_fallbacks() / reps;  // per-certification count

  const SwapEngine engine_u8(g, {.width = WidthPolicy::ForceU8});
  EquilibriumCertificate cert_u8;
  row.u8_seconds = time_repeated([&] { cert_u8 = engine_u8.certify(model, deletions); });
  check(cert, cert_u8, "engine auto/u8");

  const SwapEngine engine_u16(g, {.width = WidthPolicy::ForceU16});
  EquilibriumCertificate cert_u16;
  row.u16_seconds = time_repeated([&] { cert_u16 = engine_u16.certify(model, deletions); });
  check(cert, cert_u16, "engine auto/u16");

  ShardedCertificate sharded;
  row.sharded_seconds = time_repeated([&] { sharded = certify_sharded(g, model, deletions); });
  row.shards = sharded.shards_used;
  check(cert, sharded.certificate, "engine/sharded");

  if (measure_naive) {
    EquilibriumCertificate naive_cert;
    row.naive_seconds = time_seconds([&] {
      naive_cert = model == UsageCost::Sum ? naive::certify_sum_equilibrium(g)
                                           : naive::certify_max_equilibrium(g);
    });
    check(cert, naive_cert, "engine/naive");
  }
  return row;
}

// ---------------------------------------------------------------------------
// Game-variant rows (PR 8): the k-move engine paths vs the bncg::naive
// oracles, answers asserted identical before timing is recorded.

[[noreturn]] void variant_mismatch(const char* what, Vertex n) {
  std::cerr << "FATAL: " << what << " engine/naive mismatch at n=" << n << "\n";
  std::exit(1);
}

struct KStabilityRow {
  std::string instance;
  Vertex n = 0;
  std::size_t m = 0;
  Vertex k = 0;
  bool stable = false;
  double engine_seconds = 0.0;
  double naive_seconds = 0.0;

  [[nodiscard]] double speedup() const { return naive_seconds / engine_seconds; }
};

std::vector<KStabilityRow> measure_kstability(Vertex max_n) {
  // The exact set-cover solver is SHARED between engine and naive
  // (cover_select), so these rows isolate what the engine actually
  // accelerates: the distance machinery (batched bit-parallel APSP + SIMD
  // far/cover row scans vs one scalar BFS per row + scalar scans). Instances
  // with giant far spheres (e.g. diagonal tori) make the shared solver
  // dominate both sides and the ratio collapses to 1× by construction —
  // those live in the differential suites, not here.
  //
  // Workload: whole-graph insertion_stability sweeps of the star — the
  // paper's Theorem 1 equilibrium, and the natural "certify the known
  // equilibrium is k-insertion-robust" question. Every agent is stable at
  // small k (a leaf's far sphere is all n − 2 non-neighbors and only x
  // itself relieves x, so no k ≤ 3 cover exists), which makes the sweep run
  // the far/cover machinery at ALL n agents with the shared solver staying
  // trivial (singleton sets) — the ratio is the distance machinery, at full
  // sweep length.
  std::vector<KStabilityRow> rows;
  for (const Vertex n : {Vertex{256}, Vertex{1024}}) {
    if (n > max_n) continue;
    const Graph g = star(n);
    for (Vertex k = 1; k <= 3; ++k) {
      KStabilityRow row;
      row.instance = "star_sweep";
      row.n = g.num_vertices();
      row.m = g.num_edges();
      row.k = k;
      KStabilityReport engine_report, naive_report;
      row.engine_seconds = time_repeated([&] { engine_report = insertion_stability(g, k); });
      row.naive_seconds =
          time_repeated([&] { naive_report = naive::insertion_stability(g, k); });
      if (engine_report.stable != naive_report.stable ||
          engine_report.witness_vertex != naive_report.witness_vertex ||
          engine_report.witness_endpoints != naive_report.witness_endpoints) {
        variant_mismatch("kstability", row.n);
      }
      row.stable = engine_report.stable;
      std::cout << "kstability " << row.instance << " n=" << row.n << " k=" << k
                << " stable=" << row.stable << " engine=" << row.engine_seconds
                << "s naive=" << row.naive_seconds << "s speedup=" << row.speedup() << "x\n";
      rows.push_back(row);
    }
  }
  return rows;
}

struct AlphaRow {
  Vertex n = 0;
  std::size_t m = 0;
  double alpha = 0.0;
  Vertex agents = 0;
  double engine_seconds = 0.0;
  double naive_seconds = 0.0;

  [[nodiscard]] double speedup() const { return naive_seconds / engine_seconds; }
};

std::vector<AlphaRow> measure_alpha_game(Vertex max_n) {
  // Greedy-deviation scans at α = 2 over an agent sample (the naive side
  // pays one BFS per candidate move — Θ(deg·n) BFS per agent — so the
  // n = 1024 row samples 16 agents; the ratio is per-agent and
  // sample-size-independent). Engine timing includes the SwapEngine build:
  // that is what a caller actually pays per graph version.
  std::vector<AlphaRow> rows;
  struct Tier {
    Vertex n;
    Vertex agents;
  };
  for (const Tier tier : {Tier{256, 64}, Tier{1024, 16}}) {
    if (tier.n > max_n) continue;
    Xoshiro256ss rng(0xA1FA ^ tier.n);
    const Graph g = random_connected_gnm(tier.n, 2 * std::size_t{tier.n}, rng);
    std::vector<Vertex> owners;
    owners.reserve(g.num_edges());
    for (const Edge& e : g.edges()) owners.push_back(rng.bernoulli(0.5) ? e.u : e.v);
    const ClassicGame game(g, /*alpha=*/2.0, owners);

    AlphaRow row;
    row.n = g.num_vertices();
    row.m = g.num_edges();
    row.alpha = 2.0;
    row.agents = tier.agents;

    std::vector<std::optional<ClassicMove>> engine_moves(tier.agents), naive_moves(tier.agents);
    row.engine_seconds = time_repeated([&] {
      const SwapEngine engine(g);
      SwapEngine::Scratch scratch;
      for (Vertex v = 0; v < tier.agents; ++v) {
        engine_moves[v] = game.best_deviation_engine(engine, scratch, v);
      }
    });
    row.naive_seconds = time_seconds([&] {
      BfsWorkspace ws;
      for (Vertex v = 0; v < tier.agents; ++v) {
        naive_moves[v] = game.best_deviation_naive(v, ws);
      }
    });
    for (Vertex v = 0; v < tier.agents; ++v) {
      const auto& a = engine_moves[v];
      const auto& b = naive_moves[v];
      if (a.has_value() != b.has_value() ||
          (a && (a->type != b->type || a->w != b->w || a->w2 != b->w2 || a->gain != b->gain))) {
        variant_mismatch("alpha_game", row.n);
      }
    }
    std::cout << "alpha_game n=" << row.n << " agents=" << row.agents
              << " engine=" << row.engine_seconds << "s naive=" << row.naive_seconds
              << "s speedup=" << row.speedup() << "x\n";
    rows.push_back(row);
  }
  return rows;
}

struct TreeRow {
  Vertex n = 0;
  std::uint64_t movers = 0;  ///< agents with an improving swap
  double engine_seconds = 0.0;
  double naive_seconds = 0.0;

  [[nodiscard]] double speedup() const { return naive_seconds / engine_seconds; }
};

std::vector<TreeRow> measure_tree_game(Vertex max_n) {
  // Best tree swap for every agent: the O(n) single-rooting sweep vs the
  // component-BFS + induced-subgraph oracle, full n-agent sweeps both sides.
  std::vector<TreeRow> rows;
  for (const Vertex n : {Vertex{256}, Vertex{1024}}) {
    if (n > max_n) continue;
    Xoshiro256ss rng(0x73EE ^ n);
    const Graph tree = random_tree(n, rng);

    TreeRow row;
    row.n = n;
    std::vector<std::optional<TreeMove>> engine_moves(n), naive_moves(n);
    TreeGameScratch scratch;  // sweeps amortize the per-call allocations
    row.engine_seconds = time_repeated([&] {
      for (Vertex v = 0; v < n; ++v) engine_moves[v] = best_tree_deviation(tree, v, scratch);
    });
    row.naive_seconds = time_repeated([&] {
      for (Vertex v = 0; v < n; ++v) naive_moves[v] = naive::best_tree_deviation(tree, v);
    });
    for (Vertex v = 0; v < n; ++v) {
      const auto& a = engine_moves[v];
      const auto& b = naive_moves[v];
      if (a.has_value() != b.has_value() ||
          (a && (a->old_neighbor != b->old_neighbor || a->new_neighbor != b->new_neighbor ||
                 a->gain != b->gain))) {
        variant_mismatch("tree_game", n);
      }
      row.movers += a.has_value() ? 1 : 0;
    }
    std::cout << "tree_game n=" << row.n << " movers=" << row.movers
              << " engine=" << row.engine_seconds << "s naive=" << row.naive_seconds
              << "s speedup=" << row.speedup() << "x\n";
    rows.push_back(row);
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Row-cache rows (PR 10): dense vs budgeted certification of the same
// instance, certificates asserted identical, plus the cache telemetry from
// a single-scratch sweep.

struct RowCacheRow {
  std::string instance;
  Vertex n = 0;
  std::size_t m = 0;
  std::string model;
  std::uint64_t budget_bytes = 0;  ///< per-lane cap handed to the engine
  std::uint64_t dense_bytes = 0;   ///< what the dense u16 slab would take
  std::uint64_t moves = 0;
  double dense_seconds = 0.0;
  double budgeted_seconds = 0.0;
  RowCacheStats stats;  ///< from the single-scratch sweep (not the timed runs)

  [[nodiscard]] double slowdown() const { return budgeted_seconds / dense_seconds; }
  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = stats.hits + stats.misses;
    return total == 0 ? 0.0 : static_cast<double>(stats.hits) / static_cast<double>(total);
  }
};

RowCacheRow measure_row_cache(std::string instance, const Graph& g, UsageCost model) {
  const Vertex n = g.num_vertices();
  const bool deletions = model == UsageCost::Max;

  RowCacheRow row;
  row.instance = std::move(instance);
  row.n = n;
  row.m = g.num_edges();
  row.model = model == UsageCost::Sum ? "sum" : "max";
  row.dense_bytes = 2ull * n * n;  // the u16 slab the budget displaces

  // Half the u16 slab per engine lane: big enough that neighbor rows stay
  // resident, small enough that far/candidate traffic has to recycle blocks.
  const std::size_t lanes = ThreadPool::global().size();
  ResourceConfig budgeted_res;
  budgeted_res.width = WidthPolicy::ForceU16;
  budgeted_res.mem_budget = static_cast<std::uint64_t>(lanes) * n * n;
  row.budget_bytes = static_cast<std::uint64_t>(n) * n;

  const SwapEngine dense_engine(g, {.width = WidthPolicy::ForceU16});
  const SwapEngine budgeted_engine(g, budgeted_res);
  if (budgeted_engine.budget_policy().storage_for(n, DistWidth::U16) != RowStorage::Budgeted) {
    std::cerr << "FATAL: row_cache bench budget did not force budgeted storage at n=" << n
              << "\n";
    std::exit(1);
  }

  EquilibriumCertificate dense_cert, budgeted_cert;
  row.dense_seconds = time_repeated([&] { dense_cert = dense_engine.certify(model, deletions); });
  row.budgeted_seconds =
      time_repeated([&] { budgeted_cert = budgeted_engine.certify(model, deletions); });
  if (dense_cert.is_equilibrium != budgeted_cert.is_equilibrium ||
      dense_cert.moves_checked != budgeted_cert.moves_checked) {
    std::cerr << "FATAL: row_cache dense/budgeted certificate mismatch at n=" << n
              << " model=" << row.model << "\n";
    std::exit(1);
  }
  row.moves = dense_cert.moves_checked;

  // The timed certify() runs keep their counters in per-lane scratches; one
  // sequential sweep over every agent reproduces the access pattern with a
  // single observable scratch.
  SwapEngine::Scratch scratch;
  for (Vertex v = 0; v < n; ++v) {
    (void)budgeted_engine.best_deviation(v, model, scratch, /*include_deletions=*/deletions);
  }
  row.stats = scratch.row_cache_stats();
  return row;
}

std::vector<RowCacheRow> measure_row_cache_all(Vertex max_n) {
  std::vector<RowCacheRow> rows;
  if (max_n >= 1024) {
    Xoshiro256ss rng(0xBE7C ^ Vertex{1024});
    const Graph g = random_connected_gnm(1024, 2048, rng);
    rows.push_back(measure_row_cache("gnm", g, UsageCost::Sum));
    rows.push_back(measure_row_cache("gnm", g, UsageCost::Max));
  }
  if (max_n >= 512) {
    // The paper-family instance the 2^17 budget smoke scales up
    // (scripts/certify_budget.sh): Theorem 12's rotated torus.
    rows.push_back(measure_row_cache("torus_k16", rotated_torus(16).graph(), UsageCost::Max));
  }
  for (const RowCacheRow& r : rows) {
    std::cout << "row_cache " << r.instance << " n=" << r.n << " model=" << r.model
              << " dense=" << r.dense_seconds << "s budgeted=" << r.budgeted_seconds
              << "s slowdown=" << r.slowdown() << "x hit_rate=" << r.hit_rate()
              << " evictions=" << r.stats.evictions << " peak_bytes=" << r.stats.peak_bytes
              << "\n";
  }
  return rows;
}

// ---------------------------------------------------------------------------
// First-scan plan: first-improvement scans under each storage mode.

struct FirstScanRow {
  std::string instance;
  std::string scans;  ///< "mover" (agents with an improving swap) or "quiet"
  Vertex n = 0;
  std::string model;
  std::uint64_t agents = 0;
  std::uint64_t found = 0;  ///< scans that returned a deviation
  double dense_seconds = 0.0;
  double streamed_seconds = 0.0;
  double adaptive_seconds = 0.0;
  RowCacheStats adaptive_stats;  ///< misses before promotion, promotions
};

/// One first_deviation per agent, on a fresh scratch; seconds for the
/// sweep. `found` counts the deviations, `stats` the scratch's counters.
double first_scan_sweep(const SwapEngine& engine, const std::vector<Vertex>& agents,
                        UsageCost model, std::uint64_t& found, RowCacheStats& stats) {
  SwapEngine::Scratch scratch;
  found = 0;
  const double seconds = time_seconds([&] {
    for (const Vertex v : agents) found += engine.first_deviation(v, model, scratch) ? 1 : 0;
  });
  stats = scratch.row_cache_stats();
  return seconds;
}

/// Times the same first-scan sweep under the three storage modes: adaptive
/// (unbudgeted), dense (a lane budget of exactly the slab, which leaves no
/// room for pre-promotion rows) and streamed (one byte less: the row cache
/// holds nearly every row). Verdicts are asserted identical.
FirstScanRow measure_first_scans(std::string instance, std::string scans, const Graph& g,
                                 UsageCost model, const std::vector<Vertex>& agents) {
  const Vertex n = g.num_vertices();
  const SwapEngine adaptive(g);
  const DistWidth w = adaptive.preferred_width();
  const std::uint64_t slab = std::uint64_t{n} * n * (w == DistWidth::U8 ? 1 : 2);
  const std::uint64_t lanes = ThreadPool::global().size();
  const SwapEngine dense(g, {.mem_budget = lanes * slab});
  const SwapEngine streamed(g, {.mem_budget = lanes * (slab - 1)});
  if (adaptive.budget_policy().storage_for(n, w, true) != RowStorage::Adaptive ||
      dense.budget_policy().storage_for(n, w, true) != RowStorage::Dense ||
      streamed.budget_policy().storage_for(n, w, true) != RowStorage::Budgeted) {
    std::cerr << "FATAL: first_scan budgets did not pick the intended storage modes\n";
    std::exit(1);
  }

  FirstScanRow row;
  row.instance = std::move(instance);
  row.scans = std::move(scans);
  row.n = n;
  row.model = model == UsageCost::Sum ? "sum" : "max";
  row.agents = agents.size();
  std::uint64_t dense_found = 0, streamed_found = 0;
  RowCacheStats unused;
  row.dense_seconds = first_scan_sweep(dense, agents, model, dense_found, unused);
  row.streamed_seconds = first_scan_sweep(streamed, agents, model, streamed_found, unused);
  row.adaptive_seconds =
      first_scan_sweep(adaptive, agents, model, row.found, row.adaptive_stats);
  if (dense_found != row.found || streamed_found != row.found) {
    std::cerr << "FATAL: first_scan verdicts differ across storage modes on " << row.instance
              << "\n";
    std::exit(1);
  }
  return row;
}

std::vector<FirstScanRow> measure_first_scans_all(Vertex max_n) {
  std::vector<FirstScanRow> rows;
  if (max_n >= 512) {
    // equilibrate-gnm's shape: the start graph's scans (nearly all find a
    // swap a few rows in) and the converged graph's (none does).
    Xoshiro256ss rng(0xF125);
    const Graph start = random_connected_gnm(520, 1040, rng);
    const DynamicsResult converged = run_dynamics(start, DynamicsConfig{});
    std::vector<Vertex> agents(start.num_vertices());
    std::iota(agents.begin(), agents.end(), Vertex{0});
    rows.push_back(measure_first_scans("gnm", "mover", start, UsageCost::Sum, agents));
    rows.push_back(
        measure_first_scans("gnm", "quiet", converged.graph, UsageCost::Sum, agents));
  }
  if (max_n >= 1024) {
    // Clean and vertex-transitive: every scan is quiet, and 32 agents
    // stand for all 2048.
    std::vector<Vertex> agents(32);
    std::iota(agents.begin(), agents.end(), Vertex{0});
    rows.push_back(measure_first_scans("torus_k32", "quiet", rotated_torus(32).graph(),
                                       UsageCost::Max, agents));
  }
  for (const FirstScanRow& r : rows) {
    std::cout << "first_scan " << r.instance << " " << r.scans << " n=" << r.n
              << " model=" << r.model << " agents=" << r.agents << " found=" << r.found
              << " dense=" << r.dense_seconds << "s streamed=" << r.streamed_seconds
              << "s adaptive=" << r.adaptive_seconds
              << "s promotions=" << r.adaptive_stats.promotions << "\n";
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Masked APSP: traversing G − v vs deriving it from the shared base, and the
// rows-by-reference scans that repair only the rows they read.

struct MaskedApspRow {
  std::string instance;
  Vertex n = 0;
  std::size_t m = 0;
  std::string width;
  std::uint64_t agents = 0;
  double base_seconds = 0.0;      ///< the one unmasked APSP (once per snapshot)
  double traverse_seconds = 0.0;  ///< per agent
  double derive_seconds = 0.0;    ///< per agent: every row of G − v by repair
  double repaired_pairs = 0.0;    ///< per agent: pairs whose distance v's removal changes
  double affected_rows = 0.0;     ///< per agent: rows v's removal changes (the mask)
  double mask_seconds = 0.0;      ///< per agent: the affected-row mask kernel
  double sum_rows_repaired = 0.0;  ///< per agent: rows a by-reference sum scan repaired
  double max_rows_repaired = 0.0;  ///< per agent: rows a by-reference max scan repaired
  double sum_scan_seconds = 0.0;   ///< per agent: best_deviation, sum, base prebuilt
  double max_scan_seconds = 0.0;   ///< per agent: best_deviation, max, base prebuilt

  [[nodiscard]] double speedup() const { return traverse_seconds / derive_seconds; }
};

/// The affected-row mask of G − v, its operands gathered the way the
/// DistanceProvider gathers them: the base rows of N(v) and, per child,
/// of its other neighbors.
template <typename Dist>
std::uint32_t affected_mask(const CsrGraph& csr, const Dist* base, Vertex v, Dist inf,
                            std::vector<std::uint32_t>& out) {
  const std::size_t n = csr.num_vertices();
  std::vector<const Dist*> kids, parents;
  std::vector<std::uint32_t> off{0};
  for (const Vertex c : csr.neighbors(v)) {
    kids.push_back(base + c * n);
    for (const Vertex p : csr.neighbors(c)) {
      if (p != v) parents.push_back(base + p * n);
    }
    off.push_back(static_cast<std::uint32_t>(parents.size()));
  }
  out.resize(n);
  return simd::kernels<Dist>().affected_rows(base + v * n, kids.data(), parents.data(),
                                             off.data(), static_cast<std::uint32_t>(kids.size()),
                                             static_cast<std::uint32_t>(n), inf, out.data());
}

/// Times 16 evenly spaced agents (agent 0 included) at width Dist; exits
/// on any row or verdict mismatch. The scans run on an engine whose base
/// is built before the clock starts; each agent's figure is the fastest of
/// three sweeps.
template <typename Dist>
MaskedApspRow measure_masked_apsp_t(std::string instance, const Graph& g, Dist inf, Dist cap) {
  const CsrGraph csr(g);
  const Vertex n = csr.num_vertices();
  const std::size_t cells = static_cast<std::size_t>(n) * n;
  BatchBfsWorkspace ws;
  std::vector<Dist> base(cells), traversed(cells), derived(cells);
  MaskedApspRow row;
  row.instance = std::move(instance);
  row.n = n;
  row.m = g.num_edges();
  row.width = sizeof(Dist) == 1 ? "u8" : "u16";
  bool base_fits = false;
  row.base_seconds = time_seconds([&] {
    base_fits = csr_apsp_capped<Dist>(csr, MaskedEdge{}, base.data(), ws, kNoVertex, inf, cap);
  });
  if (!base_fits) {
    std::cerr << "FATAL: masked_apsp base of " << row.instance << " saturates " << row.width
              << "\n";
    std::exit(1);
  }
  const SwapEngine engine(
      g, {.width = sizeof(Dist) == 1 ? WidthPolicy::ForceU8 : WidthPolicy::ForceU16});
  engine.warm_base(/*stop_at_first=*/false);
  SwapEngine::Scratch scratch;
  std::vector<std::uint32_t> mask;
  constexpr Vertex kAgents = 16;
  constexpr int kMaskReps = 64;
  for (Vertex i = 0; i < kAgents; ++i) {
    const Vertex v = static_cast<Vertex>(std::uint64_t{i} * n / kAgents);
    bool want = false, got = true;
    std::uint64_t repaired = 0;
    row.traverse_seconds += time_seconds([&] {
      want = csr_apsp_capped<Dist>(csr, MaskedEdge{}, traversed.data(), ws, v, inf, cap);
    });
    row.derive_seconds += time_seconds([&] {
      for (std::size_t x = 0; x < n; ++x) {
        got = csr_row_without<Dist>(csr, base.data() + x * n, v, derived.data() + x * n, ws, inf,
                                    cap, x == v ? nullptr : &repaired) && got;
      }
    });
    row.repaired_pairs += static_cast<double>(repaired);
    bool same = want == got;
    for (std::size_t at = 0; same && want && at < cells; ++at) {
      same = at % n == v || traversed[at] == derived[at];  // column v keeps d(x, v)
    }
    if (!same) {
      std::cerr << "FATAL: masked_apsp derived rows differ from the traversal on "
                << row.instance << " v=" << v << "\n";
      std::exit(1);
    }
    std::uint32_t affected = 0;
    row.mask_seconds += time_seconds([&] {
      for (int rep = 0; rep < kMaskReps; ++rep) affected = affected_mask(csr, base.data(), v, inf, mask);
    }) / kMaskReps;
    row.affected_rows += affected;
    for (const UsageCost model : {UsageCost::Sum, UsageCost::Max}) {
      double fastest = 0.0;
      std::uint64_t rows_repaired = 0;
      for (int sweep = 0; sweep < 3; ++sweep) {
        const std::uint64_t before = scratch.row_cache_stats().rows_repaired;
        const double t = time_seconds([&] { (void)engine.best_deviation(v, model, scratch); });
        rows_repaired = scratch.row_cache_stats().rows_repaired - before;
        fastest = sweep == 0 ? t : std::min(fastest, t);
      }
      (model == UsageCost::Sum ? row.sum_scan_seconds : row.max_scan_seconds) += fastest;
      (model == UsageCost::Sum ? row.sum_rows_repaired : row.max_rows_repaired) +=
          static_cast<double>(rows_repaired);
    }
  }
  if (engine.width_fallbacks() != 0 || scratch.row_cache_stats().slabs_traversed != 0) {
    std::cerr << "FATAL: masked_apsp scans of " << row.instance << " left the by-reference path\n";
    std::exit(1);
  }
  row.agents = kAgents;
  for (double* per_agent :
       {&row.traverse_seconds, &row.derive_seconds, &row.repaired_pairs, &row.affected_rows,
        &row.mask_seconds, &row.sum_rows_repaired, &row.max_rows_repaired, &row.sum_scan_seconds,
        &row.max_scan_seconds}) {
    *per_agent /= kAgents;
  }
  return row;
}

MaskedApspRow measure_masked_apsp(std::string instance, const Graph& g, DistWidth w) {
  if (w == DistWidth::U8) {
    return measure_masked_apsp_t<std::uint8_t>(std::move(instance), g, kSearchInf8,
                                               kMaxFiniteFor<std::uint8_t>);
  }
  return measure_masked_apsp_t<std::uint16_t>(std::move(instance), g, kInfDist16,
                                              std::uint16_t{kInfDist16 - 1});
}

std::vector<MaskedApspRow> measure_masked_apsp_all(Vertex max_n) {
  std::vector<MaskedApspRow> rows;
  for (const Vertex n : {Vertex{512}, Vertex{1024}, Vertex{2048}}) {
    if (n > 2 * max_n) continue;
    Xoshiro256ss rng(0x3A5C ^ n);
    rows.push_back(measure_masked_apsp("gnm", random_connected_gnm(n, 2 * n, rng), DistWidth::U8));
  }
  if (max_n >= 512) {
    rows.push_back(measure_masked_apsp("torus_k16", rotated_torus(16).graph(), DistWidth::U8));
  }
  if (max_n >= 1024) {
    rows.push_back(measure_masked_apsp("torus_k32", rotated_torus(32).graph(), DistWidth::U8));
    Xoshiro256ss rng(0x7EE);
    rows.push_back(measure_masked_apsp("tree", random_tree(1024, rng), DistWidth::U16));
    rows.push_back(measure_masked_apsp("cycle", cycle(1024), DistWidth::U16));
  }
  if (max_n >= 512) rows.push_back(measure_masked_apsp("star", star(512), DistWidth::U8));
  for (const MaskedApspRow& r : rows) {
    std::cout << "masked_apsp " << r.instance << " n=" << r.n << " width=" << r.width
              << " base=" << r.base_seconds << "s traverse=" << r.traverse_seconds
              << "s/agent derive=" << r.derive_seconds << "s/agent speedup=" << r.speedup()
              << "x repaired_pairs=" << r.repaired_pairs << " affected_rows=" << r.affected_rows
              << " mask=" << r.mask_seconds << "s/agent sum_scan=" << r.sum_scan_seconds
              << "s/agent (" << r.sum_rows_repaired << " rows) max_scan=" << r.max_scan_seconds
              << "s/agent (" << r.max_rows_repaired << " rows)\n";
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Kernel microbenchmarks: scalar vs the startup-active dispatch level.

struct KernelRow {
  std::string width;   // "u8" / "u16"
  std::string kernel;  // simd::Kernels member name
  std::uint32_t n = 0;
  double scalar_seconds = 0.0;  // seconds per call, dispatch pinned to scalar
  double simd_seconds = 0.0;    // seconds per call at the startup-active level

  [[nodiscard]] double speedup() const { return scalar_seconds / simd_seconds; }
};

template <typename Fn>
double time_calls(Fn&& fn, std::uint64_t reps) {
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < reps; ++i) fn();
  return std::chrono::duration<double>(Clock::now() - start).count() /
         static_cast<double>(reps);
}

/// Times the named kernel workload once per dispatch level on identical
/// state (reset() restores mutable inputs, checksum() folds the outputs) and
/// asserts the two levels produced bit-identical results before recording
/// the row. `active` is the level the process started at — comparing
/// against it (not the hardware max) keeps BNCG_SIMD=scalar runs honest.
template <typename Reset, typename Run, typename Checksum>
void bench_kernel(std::vector<KernelRow>& rows, const char* width, const char* name,
                  std::uint32_t n, std::uint64_t reps, SimdLevel active, Reset&& reset,
                  Run&& run, Checksum&& checksum) {
  KernelRow row;
  row.width = width;
  row.kernel = name;
  row.n = n;

  simd_set_level(SimdLevel::Scalar);
  reset();
  row.scalar_seconds = time_calls(run, reps);
  const std::uint64_t scalar_sum = checksum();

  simd_set_level(active);
  reset();
  row.simd_seconds = time_calls(run, reps);
  const std::uint64_t simd_sum = checksum();

  if (scalar_sum != simd_sum) {
    std::cerr << "FATAL: kernel " << width << "/" << name
              << " diverged between scalar and " << simd_level_name(active) << "\n";
    std::exit(1);
  }
  rows.push_back(row);
}

template <typename Dist>
void measure_kernels(std::vector<KernelRow>& rows, SimdLevel active) {
  constexpr std::uint32_t n = 1024;
  constexpr Dist inf = kSearchInfFor<Dist>;
  const char* width = sizeof(Dist) == 1 ? "u8" : "u16";
  const simd::Kernels<Dist>& kern = simd::kernels<Dist>();
  Xoshiro256ss rng(0xC0DE ^ sizeof(Dist));

  const auto rand_row = [&](AlignedVec<Dist>& row) {
    row.resize(n);
    for (Dist& d : row) {
      // Mostly small finite distances with an infinite sprinkle, the shape
      // the engines actually stream.
      d = rng.below(16) == 0 ? inf : static_cast<Dist>(rng.below(kMaxFiniteFor<Dist>));
    }
  };

  constexpr std::size_t kFolds = 8;  // neighbor rows per scan_min_update call
  std::vector<AlignedVec<Dist>> nbr(kFolds);
  for (auto& row : nbr) rand_row(row);
  AlignedVec<Dist> m, c, ru, rv, src;
  rand_row(m);
  rand_row(c);
  rand_row(ru);
  rand_row(rv);
  rand_row(src);

  AlignedVec<Dist> min1(n), min2(n), dst(n);
  AlignedVec<std::uint32_t> argmin(n), r1(n);
  const auto fold_u64 = [](const auto& v) {
    std::uint64_t sum = 0;
    for (const auto x : v) sum = sum * 1315423911u + static_cast<std::uint64_t>(x);
    return sum;
  };

  // scan_min_update: reset tables, fold kFolds neighbor rows per call.
  bench_kernel(
      rows, width, "scan_min_update", n, 4000, active,
      [&] {
        min1.assign(n, inf);
        min2.assign(n, inf);
        argmin.assign(n, kNoVertex);
      },
      [&] {
        min1.assign(n, inf);
        min2.assign(n, inf);
        argmin.assign(n, kNoVertex);
        for (std::size_t z = 0; z < kFolds; ++z) {
          kern.scan_min_update(min1.data(), min2.data(), argmin.data(), nbr[z].data(),
                               static_cast<std::uint32_t>(z), n);
        }
      },
      [&] { return fold_u64(min1) ^ fold_u64(min2) ^ fold_u64(argmin); });

  // select_mrow: materialize M^w from the tables just built, w cycling.
  std::uint32_t w = 0;
  bench_kernel(
      rows, width, "select_mrow", n, 20000, active, [&] { w = 0; },
      [&] {
        kern.select_mrow(dst.data(), min1.data(), min2.data(), argmin.data(), w, n);
        w = (w + 1) % kFolds;
      },
      [&] { return fold_u64(dst); });

  // r1_add: accumulate one row's relief contribution per call (u32
  // wraparound is deterministic, so the accumulated table checksums).
  bench_kernel(
      rows, width, "r1_add", n, 20000, active, [&] { r1.assign(n, 0); },
      [&] { kern.r1_add(r1.data(), static_cast<Dist>(3), src.data(), n); },
      [&] { return fold_u64(r1); });

  std::uint64_t acc = 0;
  bench_kernel(
      rows, width, "combine_sum", n, 20000, active, [&] { acc = 0; },
      [&] { acc += kern.combine_sum(m.data(), c.data(), n, inf); },
      [&] { return acc; });

  bench_kernel(
      rows, width, "combine_max", n, 20000, active, [&] { acc = 0; },
      [&] { acc += kern.combine_max(m.data(), c.data(), n, inf); },
      [&] { return acc; });

  bench_kernel(
      rows, width, "addition_row", n, 20000, active, [&] { dst.assign(n, 0); },
      [&] {
        kern.addition_row(src.data(), dst.data(), ru.data(), rv.data(), static_cast<Dist>(2),
                          static_cast<Dist>(3), n, inf);
      },
      [&] { return fold_u64(dst); });

  bench_kernel(
      rows, width, "deletion_ecc", n, 20000, active, [&] { acc = 0; },
      [&] { acc += kern.deletion_ecc(m.data(), n, inf); }, [&] { return acc; });

  bench_kernel(
      rows, width, "r1_sub", n, 20000, active, [&] { r1.assign(n, 0); },
      [&] { kern.r1_sub(r1.data(), static_cast<Dist>(3), src.data(), n); },
      [&] { return fold_u64(r1); });

  bench_kernel(
      rows, width, "row_sum_max", n, 20000, active, [&] { acc = 0; },
      [&] {
        std::uint32_t sum = 0;
        Dist mx = 0;
        kern.row_sum_max(m.data(), n, &sum, &mx);
        acc = acc * 31 + sum + mx;
      },
      [&] { return acc; });

  bench_kernel(
      rows, width, "finite_max2", n, 20000, active, [&] { acc = 0; },
      [&] {
        Dist eu = 0;
        Dist ev = 0;
        kern.finite_max2(ru.data(), rv.data(), n, inf, &eu, &ev);
        acc = acc * 31 + eu + (std::uint64_t{ev} << 16);
      },
      [&] { return acc; });

  // The index filters: calls sum their hit counts, and the checksum adds
  // the last call's emitted indices (every call emits the same ones). The
  // caps put the far filter's pass rate near a quarter (plus the infinite
  // sprinkle) and the cover filter's near a quarter; skip is mid-row.
  AlignedVec<std::uint32_t> idx(n);
  std::uint32_t hits = 0;
  const std::uint32_t skip = n / 2;
  const auto hits_checksum = [&] {
    std::uint64_t sum = acc;
    for (std::uint32_t i = 0; i < hits; ++i) sum = sum * 1315423911u + idx[i];
    return sum;
  };
  const auto cap_at = [](std::int32_t quarters) {
    return static_cast<std::int32_t>(kMaxFiniteFor<Dist>) * quarters / 4;
  };
  bench_kernel(
      rows, width, "collect_above", n, 20000, active, [&] { acc = 0; },
      [&] { acc += hits = kern.collect_above(m.data(), n, cap_at(3), skip, idx.data()); },
      hits_checksum);

  bench_kernel(
      rows, width, "collect_below", n, 20000, active, [&] { acc = 0; },
      [&] { acc += hits = kern.collect_below(m.data(), n, cap_at(1), skip, idx.data()); },
      hits_checksum);

  // min_fold: the k-way deviation fold, one neighbor row per call.
  std::size_t fold_z = 0;
  bench_kernel(
      rows, width, "min_fold", n, 20000, active,
      [&] {
        dst.assign(n, inf);
        fold_z = 0;
      },
      [&] {
        kern.min_fold(dst.data(), nbr[fold_z].data(), n);
        fold_z = (fold_z + 1) % kFolds;
      },
      [&] { return fold_u64(dst); });

  // The dirty-row filters read rows of adjacent vertices, whose entries
  // differ by at most a few hops: near[y] = ru[y] + {-1, 0, +1, +2}.
  AlignedVec<Dist> near(n);
  for (std::uint32_t y = 0; y < n; ++y) {
    const std::int64_t v = std::int64_t{ru[y]} + static_cast<std::int64_t>(rng.below(4)) - 1;
    near[y] = static_cast<Dist>(std::clamp<std::int64_t>(v, 0, inf));
  }
  bench_kernel(
      rows, width, "collect_absdiff_eq1", n, 20000, active, [&] { acc = 0; },
      [&] { acc += hits = kern.collect_absdiff_eq1(ru.data(), near.data(), n, idx.data()); },
      hits_checksum);

  bench_kernel(
      rows, width, "collect_absdiff_gt1", n, 20000, active, [&] { acc = 0; },
      [&] { acc += hits = kern.collect_absdiff_gt1(ru.data(), near.data(), n, idx.data()); },
      hits_checksum);
}

std::vector<KernelRow> measure_all_kernels() {
  const SimdLevel active = simd_active_level();
  std::vector<KernelRow> rows;
  measure_kernels<std::uint8_t>(rows, active);
  measure_kernels<std::uint16_t>(rows, active);
  simd_set_level(active);  // restore the startup dispatch for any later code
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_engine.json";
  Vertex max_n = 1024;
  if (argc > 2) {
    try {
      max_n = static_cast<Vertex>(std::stoul(argv[2]));
    } catch (const std::exception&) {
      std::cerr << "usage: bench_engine_json [output.json] [max_n]\n";
      return 2;
    }
  }

  struct Tier {
    Vertex n;
    std::size_t m_factor;
    bool naive;
  };
  // m = 2n rows keep the PR-1 naive trajectory; the m = 4n row is the
  // combine-bound tier where the width adaptivity pays the most.
  const std::vector<Tier> tiers = {{256, 2, true}, {1024, 2, true}, {1024, 4, false}};

  std::vector<Row> rows;
  for (const Tier& tier : tiers) {
    if (tier.n > max_n) continue;
    for (const UsageCost model : {UsageCost::Sum, UsageCost::Max}) {
      const Row row = measure(tier.n, tier.m_factor * tier.n, model, tier.naive);
      std::cout << "n=" << row.n << " m=" << row.m << " model=" << row.model
                << " diameter=" << row.diameter << " moves=" << row.moves
                << " width=" << row.width << " engine=" << row.engine_seconds
                << "s u8=" << row.u8_seconds << "s u16=" << row.u16_seconds
                << "s width_speedup=" << row.width_speedup()
                << "x sharded=" << row.sharded_seconds << "s";
      if (row.has_naive()) {
        std::cout << " naive=" << row.naive_seconds << "s speedup=" << row.speedup() << "x";
      }
      std::cout << "\n";
      rows.push_back(row);
    }
  }

  const std::vector<KStabilityRow> kstability_rows = measure_kstability(max_n);
  const std::vector<AlphaRow> alpha_rows = measure_alpha_game(max_n);
  const std::vector<TreeRow> tree_rows = measure_tree_game(max_n);
  const std::vector<RowCacheRow> row_cache_rows = measure_row_cache_all(max_n);
  const std::vector<FirstScanRow> first_scan_rows = measure_first_scans_all(max_n);
  const std::vector<MaskedApspRow> masked_apsp_rows = measure_masked_apsp_all(max_n);

  const std::vector<KernelRow> kernel_rows = measure_all_kernels();
  for (const KernelRow& k : kernel_rows) {
    std::cout << "kernel " << k.width << "/" << k.kernel << " n=" << k.n
              << " scalar=" << k.scalar_seconds * 1e9 << "ns simd=" << k.simd_seconds * 1e9
              << "ns speedup=" << k.speedup() << "x\n";
  }

  std::ofstream out(out_path);
  out << "{\n";
  bncg_bench::write_json_meta(out);
  out << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"n\": " << r.n << ", \"m\": " << r.m << ", \"model\": \"" << r.model << "\""
        << ", \"diameter\": " << r.diameter << ", \"moves_checked\": " << r.moves
        << ", \"width\": \"" << r.width << "\""
        << ", \"width_fallbacks\": " << r.width_fallbacks
        << ", \"engine_seconds\": " << r.engine_seconds
        << ", \"engine_swaps_per_sec\": " << r.engine_swaps_per_sec()
        << ", \"u8_seconds\": " << r.u8_seconds << ", \"u16_seconds\": " << r.u16_seconds
        << ", \"width_speedup\": " << r.width_speedup()
        << ", \"sharded_seconds\": " << r.sharded_seconds << ", \"shards\": " << r.shards;
    if (r.has_naive()) {
      out << ", \"naive_skipped\": false, \"naive_seconds\": " << r.naive_seconds
          << ", \"naive_swaps_per_sec\": " << r.naive_swaps_per_sec()
          << ", \"speedup\": " << r.speedup();
    } else {
      // The dense tier deliberately skips the minutes-long oracle run; say
      // so explicitly instead of emitting bare nulls.
      out << ", \"naive_skipped\": true";
    }
    out << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"kstability\": [\n";
  for (std::size_t i = 0; i < kstability_rows.size(); ++i) {
    const KStabilityRow& r = kstability_rows[i];
    out << "    {\"instance\": \"" << r.instance << "\", \"n\": " << r.n << ", \"m\": " << r.m
        << ", \"k\": " << r.k << ", \"stable\": " << (r.stable ? "true" : "false")
        << ", \"engine_seconds\": " << r.engine_seconds
        << ", \"naive_seconds\": " << r.naive_seconds << ", \"speedup\": " << r.speedup()
        << "}" << (i + 1 < kstability_rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"alpha_game\": [\n";
  for (std::size_t i = 0; i < alpha_rows.size(); ++i) {
    const AlphaRow& r = alpha_rows[i];
    out << "    {\"n\": " << r.n << ", \"m\": " << r.m << ", \"alpha\": " << r.alpha
        << ", \"agents\": " << r.agents << ", \"engine_seconds\": " << r.engine_seconds
        << ", \"naive_seconds\": " << r.naive_seconds << ", \"speedup\": " << r.speedup()
        << "}" << (i + 1 < alpha_rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"tree_game\": [\n";
  for (std::size_t i = 0; i < tree_rows.size(); ++i) {
    const TreeRow& r = tree_rows[i];
    out << "    {\"n\": " << r.n << ", \"movers\": " << r.movers
        << ", \"engine_seconds\": " << r.engine_seconds
        << ", \"naive_seconds\": " << r.naive_seconds << ", \"speedup\": " << r.speedup()
        << "}" << (i + 1 < tree_rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"row_cache\": [\n";
  for (std::size_t i = 0; i < row_cache_rows.size(); ++i) {
    const RowCacheRow& r = row_cache_rows[i];
    out << "    {\"instance\": \"" << r.instance << "\", \"n\": " << r.n << ", \"m\": " << r.m
        << ", \"model\": \"" << r.model << "\""
        << ", \"budget_bytes\": " << r.budget_bytes << ", \"dense_bytes\": " << r.dense_bytes
        << ", \"moves_checked\": " << r.moves << ", \"dense_seconds\": " << r.dense_seconds
        << ", \"budgeted_seconds\": " << r.budgeted_seconds
        << ", \"slowdown\": " << r.slowdown() << ", \"hits\": " << r.stats.hits
        << ", \"misses\": " << r.stats.misses << ", \"hit_rate\": " << r.hit_rate()
        << ", \"evictions\": " << r.stats.evictions << ", \"contexts\": " << r.stats.contexts
        << ", \"peak_bytes\": " << r.stats.peak_bytes << "}"
        << (i + 1 < row_cache_rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"first_scan\": [\n";
  for (std::size_t i = 0; i < first_scan_rows.size(); ++i) {
    const FirstScanRow& r = first_scan_rows[i];
    out << "    {\"instance\": \"" << r.instance << "\", \"scans\": \"" << r.scans
        << "\", \"n\": " << r.n << ", \"model\": \"" << r.model << "\""
        << ", \"agents\": " << r.agents << ", \"found\": " << r.found
        << ", \"dense_seconds\": " << r.dense_seconds
        << ", \"streamed_seconds\": " << r.streamed_seconds
        << ", \"adaptive_seconds\": " << r.adaptive_seconds
        << ", \"adaptive_misses\": " << r.adaptive_stats.misses
        << ", \"adaptive_promotions\": " << r.adaptive_stats.promotions << "}"
        << (i + 1 < first_scan_rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"masked_apsp\": [\n";
  for (std::size_t i = 0; i < masked_apsp_rows.size(); ++i) {
    const MaskedApspRow& r = masked_apsp_rows[i];
    out << "    {\"instance\": \"" << r.instance << "\", \"n\": " << r.n << ", \"m\": " << r.m
        << ", \"width\": \"" << r.width << "\", \"agents\": " << r.agents
        << ", \"base_seconds\": " << r.base_seconds
        << ", \"traverse_seconds_per_agent\": " << r.traverse_seconds
        << ", \"derive_seconds_per_agent\": " << r.derive_seconds
        << ", \"repaired_pairs_per_agent\": " << r.repaired_pairs
        << ", \"speedup\": " << r.speedup()
        << ", \"affected_rows_per_agent\": " << r.affected_rows
        << ", \"mask_seconds_per_agent\": " << r.mask_seconds
        << ", \"sum_rows_repaired_per_agent\": " << r.sum_rows_repaired
        << ", \"max_rows_repaired_per_agent\": " << r.max_rows_repaired
        << ", \"sum_scan_seconds_per_agent\": " << r.sum_scan_seconds
        << ", \"max_scan_seconds_per_agent\": " << r.max_scan_seconds << "}"
        << (i + 1 < masked_apsp_rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"kernels\": [\n";
  for (std::size_t i = 0; i < kernel_rows.size(); ++i) {
    const KernelRow& k = kernel_rows[i];
    out << "    {\"width\": \"" << k.width << "\", \"kernel\": \"" << k.kernel << "\""
        << ", \"n\": " << k.n << ", \"scalar_seconds_per_call\": " << k.scalar_seconds
        << ", \"simd_seconds_per_call\": " << k.simd_seconds
        << ", \"speedup\": " << k.speedup() << "}"
        << (i + 1 < kernel_rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
