// Distance-row provider + the width-and-budget policy — the one interface
// behind "how do I get distance rows, and under what memory budget".
//
// ResourceConfig is the single resource knob of every scan tier (SwapEngine,
// SearchState, the sharded certifier, the svc worker, the Instance facade):
//
//   width      — the storage-width preference (graph/dist_width.hpp),
//   mem_budget — a byte budget for distance-row storage (0 = take
//                BNCG_MEM_BUDGET from the environment; unset = unlimited).
//
// Routing to the exact naive oracles is not a resource decision: it is the
// process-wide BNCG_FORCE_NAIVE toggle (force_naive_requested(),
// core/swap_engine.hpp).
//
// WidthAndBudgetPolicy turns a ResourceConfig into the two decisions the
// scan tiers need: which width to prefer (one capped BFS probe), and which
// storage a scan's rows live in. A full scan is dense when its n×n slab
// fits the per-lane budget share; when it does not, the scan runs in
// BUDGETED mode against the blocked row cache (graph/row_cache.hpp), where
// rows materialize on demand by exact BFS and an eccentricity/landmark
// bound proves most rows can never affect the verdict, so they are never
// materialized (DESIGN.md §16). A first-improvement scan, which usually
// stops a few rows in, runs ADAPTIVE when the slab plus its pre-promotion
// rows fit: it streams through the row cache and promotes itself to dense
// on its ⌈n/64⌉+1-th miss. Every mode is exact; the differential suite
// (tests/test_row_cache.cpp) pins byte-parity.
//
// DistanceProvider<Dist> is the row source of the engine's one scan body
// (SwapEngine::scan_agent_t): the storage mode is the only thing dense,
// budgeted and adaptive scans differ in. Dense mode materializes the full
// masked matrix up front (prefetch is a no-op and row() points into the
// slab): derived by repair from the snapshot's one shared unmasked APSP
// (SharedApsp, built lazily by the first dense fill) when the engine offers
// it, by one batched masked APSP otherwise. Budgeted mode opens a row-cache
// context and serves rows lazily under the budget, and adaptive mode starts
// budgeted and turns dense once the scan has read as many rows as the
// batched APSP runs 64-source sweeps.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "graph/bfs_batch.hpp"
#include "graph/csr.hpp"
#include "graph/dist_width.hpp"
#include "graph/row_cache.hpp"
#include "util/simd.hpp"

namespace bncg {

/// The shared resource knobs of every scan tier (engine, search state,
/// sharded certifier, svc worker, facade).
struct ResourceConfig {
  /// Distance storage width preference; results are width-independent.
  WidthPolicy width = WidthPolicy::Auto;
  /// Byte budget for distance-row storage per process. 0 = consult
  /// BNCG_MEM_BUDGET (bytes, with optional K/M/G binary suffix); when that
  /// is unset too, storage is unlimited and every tier keeps its dense
  /// fast path. The budget is shared evenly across scan lanes.
  std::uint64_t mem_budget = 0;
};

/// Parses a byte count with optional binary suffix: "1073741824", "512K",
/// "256M", "2G". Throws std::invalid_argument on anything else.
[[nodiscard]] std::uint64_t parse_mem_bytes(const std::string& text);

/// BNCG_MEM_BUDGET parsed once per process; 0 when unset/empty.
[[nodiscard]] std::uint64_t env_mem_budget();

/// The budget a ResourceConfig resolves to: explicit field, else env, else
/// 0 (= unlimited).
[[nodiscard]] std::uint64_t resolved_mem_budget(const ResourceConfig& config);

/// Whether a scan materializes its rows densely, through the budgeted row
/// cache, or through the row cache until it has missed
/// rows_before_promotion(n) rows and densely from then on.
enum class RowStorage : std::uint8_t { Dense, Budgeted, Adaptive };

/// The resolved resource decisions of one instance: width preference and
/// row storage per width. One policy object per engine/state
/// rebuild; cheap value type.
class WidthAndBudgetPolicy {
 public:
  WidthAndBudgetPolicy() = default;
  /// Resolves the budget and splits it across `lanes` scan lanes (0 =
  /// the process thread-pool size). Every scan lane owns its own scratch,
  /// so the per-lane share is what a dense slab must fit into.
  explicit WidthAndBudgetPolicy(const ResourceConfig& config, unsigned lanes = 0);

  [[nodiscard]] WidthPolicy width_policy() const noexcept { return width_; }
  [[nodiscard]] std::uint64_t total_budget() const noexcept { return total_budget_; }
  /// Per-lane budget share (0 = unlimited).
  [[nodiscard]] std::uint64_t lane_budget() const noexcept { return lane_budget_; }

  /// Exact width for a known maximum finite distance: callers already
  /// holding a matrix (DistanceMatrix::max_finite_distance) or a diameter
  /// seed Force policies from it instead of re-probing (search.cpp).
  [[nodiscard]] static DistWidth width_for_max_distance(std::uint64_t max_distance) noexcept {
    return max_distance <= kMaxFiniteFor<std::uint8_t> ? DistWidth::U8 : DistWidth::U16;
  }
  /// The matching WidthPolicy seed (ForceU8 only when provably safe under
  /// the masked-sweep fallback contract; ForceU16 otherwise).
  [[nodiscard]] static WidthPolicy policy_for_max_distance(std::uint64_t max_distance) noexcept {
    return width_for_max_distance(max_distance) == DistWidth::U8 ? WidthPolicy::ForceU8
                                                                 : WidthPolicy::ForceU16;
  }

  /// The width-preference probe every scan tier used to duplicate: one BFS
  /// from vertex 0 bounds the diameter by 2·ecc(0); u8 is preferred under
  /// the configured policy when that bound fits the narrow encoding.
  /// Masked per-agent sweeps can still exceed the bound — the per-agent
  /// u16 fallback absorbs those exactly. Works at any n (the traversal is
  /// saturation-checked, not 16-bit-limited).
  [[nodiscard]] bool probe_prefers_u8(const CsrGraph& csr, BatchBfsWorkspace& ws) const;

  /// Cache misses an adaptive scan streams before it promotes itself to
  /// dense: ⌈n/64⌉, the number of 64-source sweeps the dense APSP runs.
  [[nodiscard]] static constexpr Vertex rows_before_promotion(Vertex n) noexcept {
    return (n + 63) / 64;
  }

  /// True when a dense n×n scan slab at width `w` fits the per-lane budget
  /// (and the dense scan's 16-bit encoding limit n < 65535 holds).
  [[nodiscard]] bool dense_fits(Vertex n, DistWidth w) const noexcept { return fits(n, w, n); }
  /// True when the total budget holds one more n×n slab at width `w` (the
  /// engine's shared base APSP) beside every lane's own dense slab.
  [[nodiscard]] bool shared_slab_fits(Vertex n, DistWidth w) const noexcept;
  /// A stop-at-first scan: adaptive when the slab plus the rows read before
  /// promotion fit, else dense when the slab alone fits. A full scan: dense
  /// when the slab fits. Otherwise budgeted, unbounded when unbudgeted.
  [[nodiscard]] RowStorage storage_for(Vertex n, DistWidth w,
                                       bool stop_at_first = false) const noexcept {
    if (stop_at_first && fits(n, w, n + rows_before_promotion(n))) return RowStorage::Adaptive;
    return dense_fits(n, w) ? RowStorage::Dense : RowStorage::Budgeted;
  }

 private:
  /// True when `rows` n-entry rows at width `w` fit the per-lane budget
  /// and n is within the dense scan's 16-bit encoding.
  [[nodiscard]] bool fits(Vertex n, DistWidth w, std::uint64_t rows) const noexcept;

  WidthPolicy width_ = WidthPolicy::Auto;
  std::uint64_t total_budget_ = 0;
  std::uint64_t lane_budget_ = 0;
  unsigned lanes_ = 1;
};

/// The unmasked capped APSP of one snapshot at one width, shared by every
/// scan lane of an engine: built by the first dense fill that asks for it
/// (the others wait on the mutex), and dropped by reset() when the
/// snapshot changes. A dense fill derives G − v's matrix from it
/// (csr_apsp_capped_without) instead of traversing G − v.
template <typename Dist>
class SharedApsp {
 public:
  /// The matrix of `csr` at (inf_value, max_finite), built on first use;
  /// nullptr when it saturates the width (then every fill traverses). The
  /// matrix is never written again until reset(), so the pointer may be
  /// read without the lock.
  [[nodiscard]] const Dist* get(const CsrGraph& csr, Dist inf_value, Dist max_finite,
                                BatchBfsWorkspace& ws);
  /// Forgets the matrix (its storage is kept for the next snapshot). Must
  /// not run concurrently with get() or with readers of its result.
  void reset() noexcept {
    const std::lock_guard<std::mutex> lock(mutex_);
    state_ = kUnbuilt;
  }

 private:
  enum : std::uint8_t { kUnbuilt, kReady, kSaturated };
  std::mutex mutex_;  // guards state_ and matrix_
  std::uint8_t state_ = kUnbuilt;
  AlignedVec<Dist> matrix_;
};

extern template class SharedApsp<std::uint8_t>;
extern template class SharedApsp<std::uint16_t>;

/// Uniform row source of one agent scan at storage width `Dist`.
///
/// Dense mode: begin() materializes the full masked matrix into the
/// caller's slab — derived from `shared` when one is passed and it fits the
/// width, else by one capped masked APSP. Budgeted mode: begin() opens a
/// RowCache context; rows materialize on the first touch and live under the
/// byte budget with block-LRU eviction. Adaptive mode: begin() opens a
/// RowCache context (its budget is what the slab leaves of the lane share)
/// and keeps the slab at hand; the row() or prefetch() that would take the
/// context past rows_before_promotion(n) misses instead runs the dense APSP
/// into the slab, and the provider serves that and every later row densely
/// (storage() reads Dense from then on).
///
/// In every mode row() returns exact distances of the masked snapshot
/// (nullptr on width saturation — the caller redoes the scan wider; a
/// promotion saturates when any row of the slab does), and a returned
/// pointer stays valid until the next materializing call (dense pointers
/// live until the next begin()).
template <typename Dist>
class DistanceProvider {
 public:
  /// Prepares a scan context over `csr` with `masked_vertex` removed.
  /// Returns false on width saturation (dense mode only — the row-cache
  /// modes saturate lazily, at the failing row() / prefetch()). The slab
  /// and `shared` (the snapshot's base APSP, or nullptr to traverse every
  /// dense fill) must outlive the context.
  [[nodiscard]] bool begin(const CsrGraph& csr, Vertex masked_vertex, Dist inf_value,
                           Dist max_finite, RowStorage storage, std::uint64_t budget_bytes,
                           AlignedVec<Dist>& dense_slab, BatchBfsWorkspace& ws,
                           SharedApsp<Dist>* shared = nullptr);

  /// The mode rows are served in now (an adaptive context reads Dense once
  /// it has promoted).
  [[nodiscard]] RowStorage storage() const noexcept { return storage_; }

  /// Row of `source` in the current context; nullptr on width saturation.
  [[nodiscard]] const Dist* row(Vertex source, BatchBfsWorkspace& ws);

  /// Batch-materializes missing rows (row-cache modes; dense mode is a
  /// no-op — everything is already resident). False on saturation.
  [[nodiscard]] bool prefetch(std::span<const Vertex> sources, BatchBfsWorkspace& ws);

  /// Row-cache-mode introspection (dense mode: trivially true / all rows).
  [[nodiscard]] bool resident(Vertex source) const;

  /// The cache behind the row-cache modes (REQUIREs that the context is
  /// not dense) — residency introspection for the differential suite.
  [[nodiscard]] const RowCache<Dist>& cache() const;
  [[nodiscard]] RowCache<Dist>& cache();
  /// Cache counters plus this provider's promotions and dense-slab fills,
  /// regardless of mode (all-zero if no context ever opened).
  [[nodiscard]] RowCacheStats cache_stats() const noexcept {
    RowCacheStats stats = cache_.stats();
    stats.promotions = promotions_;
    stats.slabs_derived = slabs_derived_;
    stats.slabs_traversed = slabs_traversed_;
    return stats;
  }

 private:
  /// Fills the slab with the context's masked matrix (derived from the
  /// shared APSP when it is usable, else one batched masked APSP) and
  /// switches to dense mode. False on width saturation.
  [[nodiscard]] bool fill_slab(BatchBfsWorkspace& ws);
  /// Adaptive mode: promotes when `missing` more misses would take the
  /// context past rows_before_promotion(n). False on width saturation.
  [[nodiscard]] bool promote_before(std::size_t missing, BatchBfsWorkspace& ws);

  RowStorage storage_ = RowStorage::Dense;
  const CsrGraph* csr_ = nullptr;
  const Dist* dense_ = nullptr;
  AlignedVec<Dist>* slab_ = nullptr;
  SharedApsp<Dist>* shared_ = nullptr;
  Vertex masked_vertex_ = kNoVertex;
  Dist inf_value_ = 0;
  Dist max_finite_ = 0;
  Vertex n_ = 0;
  RowCache<Dist> cache_;
  bool cache_configured_ = false;
  std::uint64_t cache_budget_ = 0;
  Vertex cache_n_ = 0;
  std::uint64_t promotions_ = 0;
  std::uint64_t slabs_derived_ = 0;
  std::uint64_t slabs_traversed_ = 0;
};

extern template class DistanceProvider<std::uint8_t>;
extern template class DistanceProvider<std::uint16_t>;

}  // namespace bncg
