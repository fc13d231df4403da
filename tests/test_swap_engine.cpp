// Differential tests: the delta-evaluation SwapEngine against the naive
// BFS-per-candidate oracle, over hundreds of random instances in both usage
// cost models. The engine mirrors the oracle's scan order and acceptance
// rules, so per-agent deviations must agree *exactly* (same swap, same
// costs, same kind, same move counts); whole-graph certificates must agree
// on verdict, witness costs and move counts (the witness tuple itself may
// differ under OpenMP tie-breaking).
#include "core/swap_engine.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/classic_game.hpp"
#include "core/dynamics.hpp"
#include "core/equilibrium.hpp"
#include "core/kstability.hpp"
#include "gen/classic.hpp"
#include "gen/paper.hpp"
#include "gen/random.hpp"
#include "graph/io.hpp"
#include "util/rng.hpp"

namespace bncg {
namespace {

void expect_same_deviation(const std::optional<Deviation>& got,
                           const std::optional<Deviation>& want, const char* what) {
  ASSERT_EQ(got.has_value(), want.has_value()) << what;
  if (!want) return;
  EXPECT_EQ(got->swap, want->swap) << what;
  EXPECT_EQ(got->cost_before, want->cost_before) << what;
  EXPECT_EQ(got->cost_after, want->cost_after) << what;
  EXPECT_EQ(got->kind, want->kind) << what;
}

/// Compares every per-agent scan variant on one instance.
void expect_engine_matches_oracle(const Graph& g) {
  SwapEngine engine(g);
  SwapEngine::Scratch scratch;
  BfsWorkspace ws;
  const Vertex n = g.num_vertices();
  for (Vertex v = 0; v < n; ++v) {
    // Per-agent move accounting: the full scan enumerates one candidate per
    // (incident edge, non-neighbor ≠ v) pair, plus one deletion check per
    // incident edge when the max deletion clause participates.
    const std::uint64_t swap_moves =
        static_cast<std::uint64_t>(g.degree(v)) * (n - 1 - g.degree(v));
    std::uint64_t engine_moves = 0;

    expect_same_deviation(engine.best_deviation(v, UsageCost::Sum, scratch, false, &engine_moves),
                          naive::best_sum_deviation(g, v, ws), "best sum");
    EXPECT_EQ(engine_moves, swap_moves);
    expect_same_deviation(engine.first_deviation(v, UsageCost::Sum, scratch),
                          naive::first_sum_deviation(g, v, ws), "first sum");
    engine_moves = 0;
    expect_same_deviation(
        engine.best_deviation(v, UsageCost::Max, scratch, /*include_deletions=*/true,
                              &engine_moves),
        [&] {
          // Oracle "best with deletions" mirrors the max certifier's
          // per-agent scan: best improving swap, with NonCriticalDelete
          // witnesses competing under the certifier's tie rule — recover it
          // from the single-vertex subgraph certificate.
          auto best = naive::best_max_deviation(g, v, ws);
          if (!best) {
            // No improving swap: the first neutral deletion (if any) is what
            // the deletion-inclusive scan reports.
            best = naive::first_max_deviation(g, v, ws, /*include_deletions=*/true);
          }
          return best;
        }(),
        "best max+del");
    EXPECT_EQ(engine_moves, swap_moves + g.degree(v));
    expect_same_deviation(engine.best_deviation(v, UsageCost::Max, scratch),
                          naive::best_max_deviation(g, v, ws), "best max");
    expect_same_deviation(
        engine.first_deviation(v, UsageCost::Max, scratch, /*include_deletions=*/true),
        naive::first_max_deviation(g, v, ws, /*include_deletions=*/true), "first max+del");
  }
}

/// Whole-graph certificates: verdict, witness costs, move counts.
void expect_certificates_match(const Graph& g) {
  const SwapEngine engine(g);

  const EquilibriumCertificate sum_got = engine.certify(UsageCost::Sum, false);
  const EquilibriumCertificate sum_want = naive::certify_sum_equilibrium(g);
  EXPECT_EQ(sum_got.is_equilibrium, sum_want.is_equilibrium);
  EXPECT_EQ(sum_got.moves_checked, sum_want.moves_checked);
  ASSERT_EQ(sum_got.witness.has_value(), sum_want.witness.has_value());
  if (sum_want.witness) {
    EXPECT_EQ(sum_got.witness->cost_after, sum_want.witness->cost_after);
  }

  const EquilibriumCertificate max_got = engine.certify(UsageCost::Max, true);
  const EquilibriumCertificate max_want = naive::certify_max_equilibrium(g);
  EXPECT_EQ(max_got.is_equilibrium, max_want.is_equilibrium);
  EXPECT_EQ(max_got.moves_checked, max_want.moves_checked);
  ASSERT_EQ(max_got.witness.has_value(), max_want.witness.has_value());
  if (max_want.witness) {
    EXPECT_EQ(max_got.witness->cost_after, max_want.witness->cost_after);
  }
}

// --------------------------------------------------- randomized differential

TEST(SwapEngineDifferential, RandomConnectedGnmAgainstOracle) {
  // The headline differential battery: ≥200 connected G(n, m) instances,
  // every agent, both models, exact agreement.
  Xoshiro256ss rng(0x5EED0);
  for (int trial = 0; trial < 140; ++trial) {
    const Vertex n = 5 + static_cast<Vertex>(rng.below(16));
    const std::size_t max_extra = static_cast<std::size_t>(n) * (n - 1) / 2 - (n - 1);
    const std::size_t m = (n - 1) + rng.below(std::min<std::size_t>(max_extra, 2 * n) + 1);
    const Graph g = random_connected_gnm(n, m, rng);
    expect_engine_matches_oracle(g);
  }
}

TEST(SwapEngineDifferential, RandomTreesAgainstOracle) {
  // Trees drive the sparse queue-BFS fallback inside the engine's APSP.
  Xoshiro256ss rng(0x7EE);
  for (int trial = 0; trial < 40; ++trial) {
    const Vertex n = 4 + static_cast<Vertex>(rng.below(14));
    expect_engine_matches_oracle(random_tree(n, rng));
  }
}

TEST(SwapEngineDifferential, DisconnectedGraphsAgainstOracle) {
  // Disconnected instances exercise the ∞-cost paths (reconnecting swaps,
  // far sets containing unreachable vertices).
  Xoshiro256ss rng(0xD15);
  for (int trial = 0; trial < 40; ++trial) {
    const Vertex n = 5 + static_cast<Vertex>(rng.below(12));
    const Graph g = random_gnm(n, n - 2, rng);
    expect_engine_matches_oracle(g);
  }
}

TEST(SwapEngineDifferential, CertificatesOnRandomInstances) {
  Xoshiro256ss rng(0xCE27);
  for (int trial = 0; trial < 60; ++trial) {
    const Vertex n = 5 + static_cast<Vertex>(rng.below(12));
    const std::size_t m = (n - 1) + rng.below(n + 1);
    expect_certificates_match(random_connected_gnm(n, m, rng));
  }
}

// ------------------------------------------------------------- known cases

TEST(SwapEngine, AgreesOnClassicFamilies) {
  for (const Graph& g : {star(9), complete(7), path(8), cycle(5), cycle(12)}) {
    expect_engine_matches_oracle(g);
    expect_certificates_match(g);
  }
}

TEST(SwapEngine, StarIsStableUnderBothModels) {
  const SwapEngine engine(star(10));
  EXPECT_TRUE(engine.certify(UsageCost::Sum, false).is_equilibrium);
  EXPECT_TRUE(engine.certify(UsageCost::Max, false).is_equilibrium);
}

TEST(SwapEngine, WitnessReplaysToClaimedCost) {
  // Machine-check the engine's witness: applying the swap must produce
  // exactly the claimed post-move cost.
  Xoshiro256ss rng(0x11E9);
  BfsWorkspace ws;
  for (int trial = 0; trial < 30; ++trial) {
    const Vertex n = 6 + static_cast<Vertex>(rng.below(12));
    const Graph g = random_connected_gnm(n, n + rng.below(n), rng);
    SwapEngine engine(g);
    for (const UsageCost model : {UsageCost::Sum, UsageCost::Max}) {
      const auto dev = [&]() -> std::optional<Deviation> {
        SwapEngine::Scratch scratch;
        for (Vertex v = 0; v < n; ++v) {
          if (auto d = engine.best_deviation(v, model, scratch)) return d;
        }
        return std::nullopt;
      }();
      if (!dev) continue;
      Graph h = g;
      EXPECT_EQ(vertex_cost(h, dev->swap.v, model, ws), dev->cost_before);
      apply_swap(h, dev->swap);
      EXPECT_EQ(vertex_cost(h, dev->swap.v, model, ws), dev->cost_after);
      EXPECT_LT(dev->cost_after, dev->cost_before);
    }
  }
}

TEST(SwapEngine, RebuildTracksGraphMutations) {
  Graph g = path(7);
  SwapEngine engine(g);
  const auto before = engine.certify(UsageCost::Sum, false);
  ASSERT_FALSE(before.is_equilibrium);
  // Apply the witness and rebuild: the certificate must now reflect the new
  // configuration (identical to a freshly constructed engine).
  apply_swap(g, before.witness->swap);
  engine.rebuild(g);
  const SwapEngine fresh(g);
  const auto rebuilt = engine.certify(UsageCost::Sum, false);
  const auto expected = fresh.certify(UsageCost::Sum, false);
  EXPECT_EQ(rebuilt.is_equilibrium, expected.is_equilibrium);
  EXPECT_EQ(rebuilt.moves_checked, expected.moves_checked);
}

TEST(SwapEngine, MoveCountsMatchOracle) {
  Xoshiro256ss rng(0xC0DE);
  SwapEngine::Scratch scratch;
  BfsWorkspace ws;
  for (int trial = 0; trial < 20; ++trial) {
    const Vertex n = 5 + static_cast<Vertex>(rng.below(10));
    const Graph g = random_connected_gnm(n, n + rng.below(n), rng);
    const SwapEngine engine(g);
    // Certifier move counters already compared in expect_certificates_match;
    // here compare a single agent's counter against a hand enumeration:
    // per incident edge, one candidate per non-neighbor (≠ v).
    const Vertex v = static_cast<Vertex>(rng.below(n));
    std::uint64_t moves = 0;
    (void)engine.best_deviation(v, UsageCost::Sum, scratch, false, &moves);
    const std::uint64_t non_neighbors = n - 1 - g.degree(v);
    EXPECT_EQ(moves, static_cast<std::uint64_t>(g.degree(v)) * non_neighbors);
  }
}

// ------------------------------------------------------------ engine routing
//
// The auto-selecting entry points run the engine at every n; only
// BNCG_FORCE_NAIVE routes them to the oracle. The force_naive_routing CTest
// entry reruns this suite with it set, so both routes must match the
// oracle here.

/// Sparse connected instance with n > 4096 (a 16 MiB dense u8 slab per
/// lane): large n must not change the route.
const Graph& routing_instance() {
  static const Graph g = [] {
    Xoshiro256ss rng(0x4100);
    return random_connected_gnm(4100, 3 * 4100 / 2, rng);
  }();
  return g;
}

/// The agent the routing checks scan: a peripheral leaf (largest
/// eccentricity, so first-improvement scans stop early) whose one edge the
/// default ClassicGame ownership gives to its lower-id neighbor. The oracle
/// pays one BFS per candidate, so one agent keeps the suite to seconds.
Vertex routing_agent() {
  static const Vertex agent = [] {
    const Graph& g = routing_instance();
    BfsWorkspace ws;
    Vertex best = kNoVertex;
    std::uint64_t best_ecc = 0;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      if (g.degree(v) != 1 || g.neighbors(v).front() > v) continue;
      const std::uint64_t ecc = vertex_cost(g, v, UsageCost::Max, ws);
      if (best == kNoVertex || ecc > best_ecc) {
        best = v;
        best_ecc = ecc;
      }
    }
    return best;
  }();
  return agent;
}

TEST(EngineRouting, DeviationsAtLargeNMatchTheOracle) {
  const Graph& g = routing_instance();
  ASSERT_GT(g.num_vertices(), 4096u);
  const Vertex n = g.num_vertices();
  const Vertex v = routing_agent();
  ASSERT_NE(v, kNoVertex);
  BfsWorkspace ws;
  expect_same_deviation(best_sum_deviation(g, v, ws), naive::best_sum_deviation(g, v, ws),
                        "routed best sum");
  expect_same_deviation(first_sum_deviation(g, v, ws), naive::first_sum_deviation(g, v, ws),
                        "routed first sum");
  expect_same_deviation(best_max_deviation(g, v, ws), naive::best_max_deviation(g, v, ws),
                        "routed best max");
  expect_same_deviation(first_max_deviation(g, v, ws, /*include_deletions=*/true),
                        naive::first_max_deviation(g, v, ws, /*include_deletions=*/true),
                        "routed first max+del");
  // The oracle checks one candidate per (incident edge, non-neighbor) pair,
  // plus one deletion per incident edge under the deletion clause.
  // The first-improvement scans above streamed their rows and promoted
  // themselves to the slab if they read more than ⌈n/64⌉; the full scans
  // ran dense.
  const SwapEngine engine(g);
  const WidthAndBudgetPolicy& policy = engine.budget_policy();
  EXPECT_EQ(policy.storage_for(n, engine.preferred_width(), /*stop_at_first=*/true),
            RowStorage::Adaptive);
  EXPECT_EQ(policy.storage_for(n, engine.preferred_width()), RowStorage::Dense);
  SwapEngine::Scratch scratch;
  std::uint64_t moves = 0;
  (void)engine.best_deviation(v, UsageCost::Max, scratch, /*include_deletions=*/true, &moves);
  EXPECT_EQ(moves, std::uint64_t{g.degree(v)} * (n - 1 - g.degree(v)) + g.degree(v));
}

TEST(EngineRouting, KMoveAndAlphaGameAtLargeNMatchTheOracle) {
  const Graph& g = routing_instance();
  const Vertex v = routing_agent();
  const KStabilityReport got = insertion_stability_at(g, v, 2);
  const KStabilityReport want = naive::insertion_stability_at(g, v, 2);
  EXPECT_FALSE(want.stable);  // a witness to compare
  EXPECT_EQ(got.stable, want.stable);
  EXPECT_EQ(got.witness_vertex, want.witness_vertex);
  EXPECT_EQ(got.witness_endpoints, want.witness_endpoints);

  const ClassicGame game(g, /*alpha=*/2.0);
  BfsWorkspace ws;
  const std::optional<ClassicMove> move = game.best_deviation(v, ws);
  const std::optional<ClassicMove> oracle = game.best_deviation_naive(v, ws);
  ASSERT_TRUE(oracle.has_value());
  ASSERT_TRUE(move.has_value());
  EXPECT_EQ(move->type, oracle->type);
  EXPECT_EQ(move->w, oracle->w);
  EXPECT_EQ(move->w2, oracle->w2);
  EXPECT_EQ(move->gain, oracle->gain);
}

TEST(EngineRouting, DenseOnlyPathsRefuseABudgetBelowTheSlab) {
  const Graph g = cycle(40);  // diameter 20: the dense u8 slab, 40 · 40 bytes
  const SwapEngine engine(g, {.mem_budget = 1024});
  ASSERT_EQ(engine.preferred_width(), DistWidth::U8);
  SwapEngine::Scratch scratch;
  std::vector<std::uint8_t> owned(40, 0);
  owned[1] = 1;
  EXPECT_THROW((void)engine.insertion_stability(1), DenseSlabRefused);
  EXPECT_THROW((void)engine.insertion_stability_at(0, 1, scratch), DenseSlabRefused);
  EXPECT_THROW((void)engine.alpha_scan(0, owned, scratch), DenseSlabRefused);
  try {
    (void)engine.insertion_stability(1);
  } catch (const DenseSlabRefused& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1600 bytes"), std::string::npos) << what;
    const std::string lane = std::to_string(engine.budget_policy().lane_budget());
    EXPECT_NE(what.find("per-lane budget is " + lane + " bytes"), std::string::npos) << what;
  }
  // The basic-game scans honor the same budget through the row cache.
  BfsWorkspace ws;
  expect_same_deviation(engine.best_deviation(0, UsageCost::Sum, scratch),
                        naive::best_sum_deviation(g, 0, ws), "budgeted best sum");
}

TEST(EngineRouting, DenseOnlyPathsRefuseBeyondTheSixteenBitEncoding) {
  const Graph g = path(65536);
  EXPECT_THROW((void)SwapEngine(g).insertion_stability(1), DenseSlabRefused);
}

TEST(EngineRouting, UnbudgetedRoutesPastTheSixteenBitEncodingUseTheOracle) {
  // No budget is set, so n ≥ 65535 is no refusal for the routed entry
  // points: the dense-only engine has no storage there and the oracle
  // serves. A star's center (ecc 1) is swap-stable at every k.
  const Graph g = star(65536);
  EXPECT_TRUE(dense_paths_use_oracle(g));
  EXPECT_TRUE(swap_stability_at(g, 0, 2).stable);
  SwapEngine::Scratch scratch;
  EXPECT_THROW((void)SwapEngine(g).swap_stability_at(0, 2, scratch), std::invalid_argument);
  // Below the encoding limit only BNCG_FORCE_NAIVE picks the oracle.
  EXPECT_EQ(dense_paths_use_oracle(routing_instance()), force_naive_requested());
}

/// One run_dynamics trajectory, pinned by its outcome and its last trace
/// entry. The values were recorded when dynamics at these n still ran the
/// SearchState tier, and the oracle reproduced them then, too.
struct PinnedTrajectory {
  Vertex n;
  std::uint64_t seed;  ///< Xoshiro256ss seed of random_connected_gnm(n, 2n)
  UsageCost model;
  std::uint64_t moves;
  std::uint64_t passes;
  std::uint64_t fingerprint;  ///< graph_fingerprint of the final graph
  TraceEntry last;
};

TEST(EngineRouting, DynamicsTrajectoriesMatchPinnedValues) {
  // Plain runs pin the engine tier; the force_naive_routing entry re-runs
  // this under BNCG_FORCE_NAIVE=1 and so pins the oracle to the same moves.
  // Sum runs take first improvements; max runs take best improvements with
  // neutral deletions as the fallback.
  const PinnedTrajectory pins[] = {
      {48, 0xB0D6, UsageCost::Sum, 55, 3, 0x8f7ce472bda6f2c7ull, {55, 4320, 2}},
      {48, 0xB0D6, UsageCost::Max, 143, 6, 0x95990e3b491346bfull, {143, 95, 2}},
      {96, 0x9619, UsageCost::Sum, 98, 3, 0xcce94ca888017beeull, {98, 17856, 2}},
      {96, 0x9619, UsageCost::Max, 328, 7, 0xa0126d858e1b4bcdull, {328, 286, 3}},
  };
  for (const PinnedTrajectory& pin : pins) {
    Xoshiro256ss rng(pin.seed);
    const Graph start = random_connected_gnm(pin.n, 2 * std::size_t{pin.n}, rng);
    DynamicsConfig config;
    config.cost = pin.model;
    config.policy = pin.model == UsageCost::Max ? MovePolicy::BestImprovement
                                                : MovePolicy::FirstImprovement;
    config.allow_neutral_deletions = pin.model == UsageCost::Max;
    config.record_trace = true;
    const DynamicsResult r = run_dynamics(start, config);
    const std::string ctx = "G(" + std::to_string(pin.n) + ", " + std::to_string(2 * pin.n) +
                            (pin.model == UsageCost::Sum ? ") sum" : ") max");
    EXPECT_EQ(r.moves, pin.moves) << ctx;
    EXPECT_EQ(r.passes, pin.passes) << ctx;
    EXPECT_TRUE(r.converged) << ctx;
    EXPECT_EQ(graph_fingerprint(r.graph), pin.fingerprint) << ctx;
    ASSERT_FALSE(r.trace.empty()) << ctx;
    EXPECT_EQ(r.trace.back().move, pin.last.move) << ctx;
    EXPECT_EQ(r.trace.back().social_cost, pin.last.social_cost) << ctx;
    EXPECT_EQ(r.trace.back().diameter, pin.last.diameter) << ctx;
  }
}

// ------------------------------------------------------ dynamics parity

/// Small mixed starts for the move-by-move dynamics differential.
Graph dynamics_start(int trial, Xoshiro256ss& rng) {
  const Vertex n = 6 + static_cast<Vertex>(rng.below(13));  // 6..18
  switch (trial % 4) {
    case 0:
      return random_connected_gnm(n, n + n / 2, rng);
    case 1:
      return random_connected_gnm(n, 2 * static_cast<std::size_t>(n), rng);
    case 2:
      return random_tree(n, rng);
    default:
      return random_connected_gnm(n, n - 1 + rng.below(n), rng);
  }
}

TEST(EngineDynamics, AppliedMoveTrajectoriesMatchNaiveDynamics) {
  // Round-robin first-improvement dynamics driven the way run_dynamics
  // drives the engine — first_deviation, apply, rebuild on the mutated
  // graph — with the naive oracle asked the same question on the same
  // graph before every move. Every move must be identical, and so must the
  // final certificate.
  Xoshiro256ss rng(0xC006);
  BfsWorkspace ws;
  for (int trial = 0; trial < 25; ++trial) {
    Graph mirror = dynamics_start(trial, rng);
    const UsageCost model = trial % 2 == 0 ? UsageCost::Sum : UsageCost::Max;
    const bool deletions = model == UsageCost::Max;
    SwapEngine engine(mirror);
    int moves = 0;
    bool progress = true;
    while (progress && moves < 60) {
      progress = false;
      for (Vertex v = 0; v < mirror.num_vertices() && moves < 60; ++v) {
        const auto naive_dev = model == UsageCost::Sum
                                   ? naive::first_sum_deviation(mirror, v, ws)
                                   : naive::first_max_deviation(mirror, v, ws, deletions);
        const std::string ctx = "trial " + std::to_string(trial) + " move " +
                                std::to_string(moves) + " agent " + std::to_string(v);
        expect_same_deviation(engine.first_deviation(v, model, deletions), naive_dev,
                              ctx.c_str());
        if (!naive_dev) continue;
        if (naive_dev->kind == Deviation::Kind::NonCriticalDelete) {
          mirror.remove_edge(naive_dev->swap.v, naive_dev->swap.remove_w);
        } else {
          apply_swap(mirror, naive_dev->swap);
        }
        engine.rebuild(mirror);
        ASSERT_EQ(graph_fingerprint(engine.snapshot()), graph_fingerprint(mirror)) << ctx;
        ++moves;
        progress = true;
      }
    }
    // Converged (or budget): the certificates must agree too.
    const EquilibriumCertificate got = engine.certify(model, deletions);
    const EquilibriumCertificate want = model == UsageCost::Sum
                                            ? naive::certify_sum_equilibrium(mirror)
                                            : naive::certify_max_equilibrium(mirror);
    EXPECT_EQ(got.is_equilibrium, want.is_equilibrium) << "trial " << trial;
    EXPECT_EQ(got.moves_checked, want.moves_checked) << "trial " << trial;
    ASSERT_EQ(got.witness.has_value(), want.witness.has_value()) << "trial " << trial;
    if (want.witness) {
      EXPECT_EQ(got.witness->cost_after, want.witness->cost_after) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace bncg
