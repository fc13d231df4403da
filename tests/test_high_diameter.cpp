// High-diameter regression pins: instances whose distances exceed the u16
// search-state cap (kSearchInf16) and whose dense n×n slabs would need
// hundreds of megabytes. The budgeted engine scan must still agree with the
// naive oracle byte for byte, and certification must refute them. The
// dense leg is skipped on purpose: path(20000) alone would need an 800 MB
// u16 slab per lane. HighDiameterSlow.* takes 10–25 s per test and carries
// only the `property` CTest label (CMakeLists.txt).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>

#include "core/certify_sharded.hpp"
#include "core/dist_provider.hpp"
#include "core/equilibrium.hpp"
#include "core/swap_engine.hpp"
#include "gen/classic.hpp"
#include "graph/bfs.hpp"
#include "graph/dist_width.hpp"

namespace bncg {
namespace {

/// 64 MiB across all lanes: far below any dense slab here, far above the
/// row cache's two-block minimum.
constexpr std::uint64_t kBudget = 64ull << 20;

void expect_same_deviation(const std::optional<Deviation>& want,
                           const std::optional<Deviation>& got, const std::string& ctx) {
  ASSERT_EQ(want.has_value(), got.has_value()) << ctx;
  if (!want) return;
  EXPECT_EQ(want->swap.v, got->swap.v) << ctx;
  EXPECT_EQ(want->swap.remove_w, got->swap.remove_w) << ctx;
  EXPECT_EQ(want->swap.add_w, got->swap.add_w) << ctx;
  EXPECT_EQ(want->cost_before, got->cost_before) << ctx;
  EXPECT_EQ(want->cost_after, got->cost_after) << ctx;
  EXPECT_EQ(want->kind, got->kind) << ctx;
}

TEST(HighDiameterSlow, Path20kAgent3BudgetedMatchesNaiveBeyondTheSearchCap) {
  const Graph g = path(20000);
  const SwapEngine engine(g, {.mem_budget = kBudget});
  ASSERT_EQ(engine.budget_policy().storage_for(g.num_vertices(), engine.preferred_width()),
            RowStorage::Budgeted);
  SwapEngine::Scratch scratch;
  const std::optional<Deviation> budgeted = engine.best_deviation(3, UsageCost::Max, scratch);
  BfsWorkspace ws;
  const std::optional<Deviation> oracle = naive::best_max_deviation(g, 3, ws);
  expect_same_deviation(oracle, budgeted, "path(20000) agent 3");
  ASSERT_TRUE(budgeted.has_value());
  EXPECT_EQ(budgeted->cost_before, 19996u);
  EXPECT_GT(budgeted->cost_before, kSearchInf16);
}

/// Refutation with a deterministic witness: one shard, verdict-only scan,
/// so the witness is agent 0's first improving swap — checked against the
/// naive oracle's.
void expect_refuted(const Graph& g, const std::string& ctx) {
  ShardedCertifyConfig config;
  config.shards = 1;
  config.stop_on_violation = true;
  config.resources.mem_budget = kBudget;
  const ShardedCertificate cert = certify_sharded(g, UsageCost::Max, true, config);
  EXPECT_FALSE(cert.certificate.is_equilibrium) << ctx;
  BfsWorkspace ws;
  expect_same_deviation(naive::first_max_deviation(g, 0, ws, true), cert.certificate.witness,
                        ctx);
}

TEST(HighDiameterSlow, Path40kRefutes) { expect_refuted(path(40000), "path(40000)"); }

TEST(HighDiameter, Cycle20kRefutes) { expect_refuted(cycle(20000), "cycle(20000)"); }

}  // namespace
}  // namespace bncg
