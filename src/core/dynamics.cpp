#include "core/dynamics.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "core/swap_engine.hpp"
#include "graph/io.hpp"
#include "graph/metrics.hpp"

namespace bncg {

namespace {

/// Move provider for the dynamics loop, in two tiers:
///  * SwapEngine-backed (the default at every n): one CSR snapshot per
///    accepted move, rows dense or budgeted as the engine's policy decides
///    (the first-improvement scans stream, and promote themselves to the
///    dense slab past ⌈n/64⌉ rows).
///  * naive (BNCG_FORCE_NAIVE): the original BFS-per-candidate oracle.
/// Both return bit-identical deviations, so trajectories do not depend on
/// the tier (tests/test_swap_engine.cpp pins one trajectory for both). Each
/// tier contributes only its first(v, include_deletions) / best(v) scans;
/// the move selection and the certificate are written once over them.
class MoveProvider {
 public:
  MoveProvider(const Graph& g, const DynamicsConfig& config)
      : g_(g),
        config_(config),
        deletions_(config.cost == UsageCost::Max && config.allow_neutral_deletions) {
    if (!force_naive_requested()) engine_.emplace(g, config.resources);
  }

  /// Must be called after every executed move (graph mutated accordingly).
  void on_move() {
    if (engine_) engine_->rebuild(g_);
  }

  /// Picks the deviation for agent `v` according to the configured model and
  /// policy. Neutral deletions are only surfaced in the max model when asked;
  /// under best-improvement they never compete on cost_after — the best
  /// improving swap wins, a neutral deletion is the fallback.
  std::optional<Deviation> agent_deviation(Vertex v) {
    if (config_.policy == MovePolicy::FirstImprovement) return first(v, deletions_);
    auto best_move = best(v);
    if (!best_move && deletions_) best_move = first(v, /*include_deletions=*/true);
    return best_move;
  }

  /// True iff the graph is in equilibrium for the configured game (including
  /// the deletion clause when neutral deletions participate in the max game).
  bool certified() {
    if (engine_) return engine_->certify(config_.cost, deletions_).is_equilibrium;
    for (Vertex v = 0; v < g_.num_vertices(); ++v) {
      if (first(v, deletions_)) return false;
    }
    return true;
  }

 private:
  std::optional<Deviation> first(Vertex v, bool include_deletions) {
    if (engine_) return engine_->first_deviation(v, config_.cost, include_deletions);
    return config_.cost == UsageCost::Sum
               ? naive::first_sum_deviation(g_, v, ws_)
               : naive::first_max_deviation(g_, v, ws_, include_deletions);
  }

  std::optional<Deviation> best(Vertex v) {
    if (engine_) return engine_->best_deviation(v, config_.cost);
    return config_.cost == UsageCost::Sum ? naive::best_sum_deviation(g_, v, ws_)
                                          : naive::best_max_deviation(g_, v, ws_);
  }

  const Graph& g_;
  const DynamicsConfig& config_;
  bool deletions_;
  std::optional<SwapEngine> engine_;
  BfsWorkspace ws_;
};

/// Executes a deviation on the live graph. NonCriticalDelete witnesses
/// encode a pure deletion (add_w == remove_w), which ScopedSwap treats as a
/// no-op — handle it explicitly.
void execute(Graph& g, const Deviation& dev) {
  if (dev.kind == Deviation::Kind::NonCriticalDelete) {
    g.remove_edge(dev.swap.v, dev.swap.remove_w);
    return;
  }
  apply_swap(g, dev.swap);
}

void record(const Graph& g, UsageCost model, std::uint64_t move, std::vector<TraceEntry>& trace) {
  trace.push_back({move, social_cost(g, model), diameter(g)});
}

}  // namespace

std::uint64_t social_cost(const Graph& g, UsageCost model) {
  const Vertex n = g.num_vertices();
  BfsWorkspace ws;
  std::uint64_t total = 0;
  for (Vertex v = 0; v < n; ++v) {
    const std::uint64_t c = vertex_cost(g, v, model, ws);
    if (c == kInfCost) return kInfCost;
    total += c;
  }
  return total;
}

DynamicsResult run_dynamics(Graph start, const DynamicsConfig& config) {
  BNCG_REQUIRE(is_connected(start), "dynamics require a connected start graph");
  DynamicsResult result;
  result.graph = std::move(start);
  Graph& g = result.graph;
  const Vertex n = g.num_vertices();

  Xoshiro256ss rng(config.seed);
  MoveProvider provider(g, config);
  if (config.record_trace) record(g, config.cost, 0, result.trace);

  std::vector<Vertex> order(n);
  std::iota(order.begin(), order.end(), Vertex{0});

  std::unordered_set<std::string> visited;
  if (config.detect_revisits) visited.insert(to_graph6(g));

  bool out_of_budget = false;
  const auto post_move = [&]() {
    provider.on_move();
    ++result.moves;
    if (config.record_trace) record(g, config.cost, result.moves, result.trace);
    if (config.detect_revisits && !result.revisited &&
        !visited.insert(to_graph6(g)).second) {
      result.revisited = true;
      result.first_revisit_move = result.moves;
    }
    if (result.moves >= config.max_moves) out_of_budget = true;
  };

  for (;;) {
    bool any_move = false;
    if (config.scheduler == Scheduler::GreedyGlobal) {
      // One pass = one globally best move.
      std::optional<Deviation> best;
      for (Vertex v = 0; v < n && !out_of_budget; ++v) {
        const auto dev = provider.agent_deviation(v);
        if (!dev) continue;
        // Rank by absolute improvement; neutral deletions rank last.
        const auto gain = [](const Deviation& d) {
          return d.cost_before == kInfCost ? kInfCost : d.cost_before - d.cost_after;
        };
        if (!best || gain(*dev) > gain(*best)) best = dev;
      }
      if (best) {
        execute(g, *best);
        any_move = true;
        post_move();
      }
    } else {
      if (config.scheduler == Scheduler::RandomOrder) rng.shuffle(order);
      for (const Vertex v : order) {
        if (out_of_budget) break;
        const auto dev = provider.agent_deviation(v);
        if (!dev) continue;
        execute(g, *dev);
        any_move = true;
        post_move();
      }
    }
    ++result.passes;
    if (!any_move || out_of_budget) break;
  }

  // A quiet pass under FirstImprovement scanning is already an exhaustive
  // certificate for the *scanned* move set; re-certify explicitly so the
  // flag is trustworthy regardless of policy or early exit.
  result.converged = !out_of_budget && provider.certified();
  return result;
}

}  // namespace bncg
