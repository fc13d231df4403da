// Delta-evaluation swap engine — the hot path of the whole system.
//
// Certifying a swap equilibrium means evaluating every candidate swap
// (v, w → w₂) of every agent; the naive path pays one full BFS per
// candidate, i.e. Θ(deg(v)·n) traversals per agent. The engine replaces
// that with per-*removed-edge* work plus a linear algebraic combine per
// candidate, built on three ideas (proofs and measurements in DESIGN.md):
//
//  1. CSR snapshots. The adjacency is frozen into a CsrGraph once per
//     *accepted* move (rebuild()); tentative moves never mutate anything.
//  2. Source-removal identity. Every move of agent v only edits edges
//     incident to v, and every post-move path from v starts with one of
//     them, so for any new neighborhood N' of v:
//       d'(v,u) = 1 + min_{z ∈ N'} d_{G−v}(z, u)        (u ≠ v).
//     The all-pairs distances of the *vertex-masked* snapshot G−v therefore
//     answer every (removed edge w, candidate w₂) pair of the agent. They
//     are not traversed per agent: one (batched, bit-parallel) APSP of G
//     itself is shared by every agent of the snapshot, and G−v's rows are
//     served from it by reference — a row is repaired (csr_row_without) only
//     when v's removal changes it, and only when the scan reads it. The sum
//     scan first combines with the unrepaired base row, a lower bound since
//     d_G ≤ d_{G−v}, and repairs only the rows whose bound could still
//     improve. With c_z = d_{G−v}(z,·) and
//     M^w_u = min_{z ∈ N(v)∖{w}} c_{z,u}
//     (built in O(n) per w from elementwise min/argmin/second-min over the
//     neighbor rows):
//       sum model: cost'(v) = (n−1) + Σ_u min(M^w_u, c_{w₂,u}),
//       max model: cost'(v) = 1 + max_u min(M^w_u, c_{w₂,u}),
//     an O(n) vectorizable combine per candidate — no per-candidate BFS,
//     and no per-removed-edge traversal either. Deleting vw falls out for
//     free: its post-move profile is 1 + M^w.
//  3. Far-set filtering (max model). cost'(v) < ecc(v) requires
//     c_{w₂,u} ≤ ecc(v) − 2 on the far set {u : M^w_u > ecc(v) − 2}, which
//     is typically tiny. The filter streams over far-vertex rows (by
//     symmetry d(f, w₂) = d(w₂, f)), largest M^w first, narrowing one
//     survivor list of candidates; the exact combine runs only for the
//     survivors, which are proven improvers.
//
// There is one scan body. Its rows come from a DistanceProvider
// (core/dist_provider.hpp) whose storage mode the WidthAndBudgetPolicy
// picks: dense rows of G − v (by reference from the shared base, or one
// masked matrix per agent when the budget cannot hold the base), a budgeted
// row cache, or — for first-improvement scans — a row cache that promotes
// itself to dense once the scan has missed ⌈n/64⌉ rows without stopping.
// The mode changes speed and memory, never results.
//
// The scan kernels are templated on the distance storage width
// (graph/dist_width.hpp): on small-diameter instances the per-agent masked
// matrix and all combine rows shrink to u8 (capped infinity kSearchInf8),
// halving the combine's memory traffic — DESIGN.md §10. Width is a pure
// storage choice: any agent whose masked sweep meets a distance the narrow
// cap cannot represent is transparently redone at u16 (width_fallbacks()),
// so results never depend on the width. The count follows the storage a
// scan actually used: a dense context saturates where any row of G − v
// does (read or not — the provider's verdict is whole-matrix), a streamed
// one only where a row it read does, so an adaptive scan that promotes can
// fall back where the same scan unpromoted would not.
//
// Scans enumerate candidates in exactly the naive order and apply exactly
// the naive acceptance rules, so engine results are bit-identical to the
// brute-force oracle (differential-tested on hundreds of random instances —
// across widths too, see tests/test_width_fuzz.cpp).
//
// The auto-selecting entry points (core/equilibrium, core/kstability,
// ClassicGame, the tree game, the lemma checks, the unrest measures, anneal
// and run_dynamics, hence Instance::equilibrate) run the engine at every n;
// BNCG_FORCE_NAIVE=1 routes them to the oracles. Storage is the
// WidthAndBudgetPolicy's decision, not a route: unbudgeted, a large-n full
// scan reads the shared n×n base plus the rows it repairs per lane (a
// first-improvement scan only once it promotes), which BNCG_MEM_BUDGET
// bounds.
// The dense-only k-move and α-game paths refuse a budget below their slab
// (DenseSlabRefused). The toggle does NOT route what builds a SwapEngine
// explicitly: certify_sharded (hence Instance::certify),
// certify_agent_range, and every bncg_certify mode.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/dist_provider.hpp"
#include "core/equilibrium.hpp"
#include "core/kstability.hpp"
#include "core/usage_cost.hpp"
#include "graph/bfs_batch.hpp"
#include "graph/csr.hpp"
#include "graph/dist_width.hpp"
#include "graph/graph.hpp"
#include "util/simd.hpp"

namespace bncg {

/// True iff BNCG_FORCE_NAIVE is set (read once per process): the one
/// engine/oracle switch every auto-selecting tier consults, at every n.
[[nodiscard]] bool force_naive_requested();

/// The oracle route of the dense-only entry points (k-move, ClassicGame,
/// is_deletion_critical): BNCG_FORCE_NAIVE, or n ≥ 65535, past the dense
/// 16-bit encoding. A budget below the slab throws DenseSlabRefused instead.
[[nodiscard]] bool dense_paths_use_oracle(const Graph& g);

/// Thrown by the dense-only engine paths (k-move, α-game) when their n×n
/// slab exceeds the per-lane budget share or n ≥ 65535; the message states
/// the slab bytes and the lane budget.
class DenseSlabRefused : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// One α-game usage evaluation from SwapEngine::alpha_scan, emitted in
/// exactly the order ClassicGame's naive scan enumerates moves (adds by
/// ascending endpoint, then per owned neighbor: the deletion, then swaps by
/// ascending target). `usage` is the post-move Σ_u d'(v,u) — kInfCost when
/// the move disconnects v. The α-dependent cost and gain arithmetic stays in
/// ClassicGame so both paths share one double-precision pipeline and the
/// engine remains pure integer.
struct AlphaCandidate {
  enum class Kind : std::uint8_t { Add, Delete, Swap };
  Kind kind = Kind::Add;
  Vertex w = 0;   ///< added endpoint (Add) or removed neighbor (Delete/Swap)
  Vertex w2 = 0;  ///< swap target (Swap only)
  std::uint64_t usage = 0;
};

/// Delta-evaluating swap scanner over an immutable CSR snapshot.
class SwapEngine {
 public:
  /// Per-thread scratch: the repaired rows of G − v (or its whole masked
  /// matrix when no shared base serves it; in the width the scan runs at),
  /// the batched BFS workspace, and small per-agent marks. Allocated once,
  /// reused for every scan; one instance per thread. Only the width
  /// actually exercised allocates rows, so u8-preferring engines that never
  /// fall back pay no u16 storage.
  class Scratch {
   public:
    friend class SwapEngine;

    /// Row providers of this scratch, one per width; every basic-game scan
    /// reads its rows through them in dense, budgeted or adaptive mode —
    /// residency/stat introspection for benches and the prune-soundness
    /// suite.
    [[nodiscard]] const DistanceProvider<std::uint8_t>& provider8() const noexcept {
      return rows8_.provider;
    }
    [[nodiscard]] const DistanceProvider<std::uint16_t>& provider16() const noexcept {
      return rows16_.provider;
    }
    /// Combined row-cache counters, promotions, dense contexts (by
    /// reference vs traversed) and repaired rows of both widths.
    [[nodiscard]] RowCacheStats row_cache_stats() const;

    /// The last scan's neighbor fold at width Dist: min1, min2 and argmin
    /// over N(v) — introspection for the column-v pin suite.
    template <typename Dist>
    struct FoldView {
      std::span<const Dist> min1;
      std::span<const Dist> min2;
      std::span<const Vertex> argmin;
    };
    template <typename Dist>
    [[nodiscard]] FoldView<Dist> fold_tables() const noexcept {
      if constexpr (std::is_same_v<Dist, std::uint8_t>) {
        return {rows8_.min1, rows8_.min2, argmin_};
      } else {
        return {rows16_.min1, rows16_.min2, argmin_};
      }
    }

   private:
    /// Width-typed row buffers of one scan. 64-byte-aligned storage: these
    /// are exactly the arrays the SIMD scan kernels stream over.
    template <typename Dist>
    struct Rows {
      AlignedVec<Dist> apsp;  // repaired rows of G − v, or all of them (dense)
      AlignedVec<Dist> min1;  // elementwise min over neighbor rows
      AlignedVec<Dist> min2;  // elementwise second min
      AlignedVec<Dist> mrow;  // M^w: min over N(v)∖{w}
      AlignedVec<Dist> arow;  // k-way min-fold target (k-swap subsets)
      DistanceProvider<Dist> provider;  // dense slab and/or row cache
    };
    template <typename Dist>
    [[nodiscard]] Rows<Dist>& rows() noexcept {
      if constexpr (std::is_same_v<Dist, std::uint8_t>) {
        return rows8_;
      } else {
        return rows16_;
      }
    }

    BatchBfsWorkspace bfs_;
    std::vector<std::uint16_t> base_;   // d_G(v, ·) of the scanned agent
    std::vector<std::uint8_t> is_nbr_;  // closed neighborhood marks of v
    AlignedVec<Vertex> argmin_;         // neighbor attaining min1
    AlignedVec<Vertex> far_;            // far set of the removed edge (n slots)
    AlignedVec<Vertex> hits_;           // collect_below output (cover masks)
    std::vector<std::uint64_t> masks_;  // flat per-candidate coverage bitsets
    std::vector<AlphaCandidate> alpha_;  // buffered α-scan candidates
    std::vector<Vertex> survivors_;      // streamed far-filter survivor list
    std::vector<Vertex> survivors_next_;
    Rows<std::uint8_t> rows8_;
    Rows<std::uint16_t> rows16_;
  };

  /// Snapshots `g` under `resources` (core/dist_provider.hpp): scans prefer
  /// the storage width resources.width allows (graph/dist_width.hpp), and
  /// any width whose dense n×n slab would exceed the per-lane share of the
  /// memory budget runs BUDGETED — distance rows materialize on demand in
  /// the blocked row cache instead of up front. First-improvement scans run
  /// ADAPTIVE when the slab plus ⌈n/64⌉ rows fit. Instances at n ≥ 65535,
  /// beyond the dense scan's 16-bit encoding, always run budgeted. Both
  /// modes and every width are exact: resources change speed and memory,
  /// never results.
  explicit SwapEngine(const Graph& g, const ResourceConfig& resources = {})
      : resources_(resources) {
    rebuild(g);
  }

  /// Re-snapshots after an accepted move (storage reused, width preference
  /// re-probed under the engine's resources).
  void rebuild(const Graph& g);

  [[nodiscard]] const ResourceConfig& resources() const noexcept { return resources_; }
  /// The resolved width/storage decisions scans run under.
  [[nodiscard]] const WidthAndBudgetPolicy& budget_policy() const noexcept {
    return budget_policy_;
  }

  [[nodiscard]] const CsrGraph& snapshot() const noexcept { return csr_; }

  /// Width scans start in: U8 when the policy and the probed diameter bound
  /// allow it, else U16.
  [[nodiscard]] DistWidth preferred_width() const noexcept {
    return prefer_u8_ ? DistWidth::U8 : DistWidth::U16;
  }

  /// Number of agent scans (since the last rebuild) whose masked sweep
  /// saturated the u8 cap and were redone at u16.
  [[nodiscard]] std::uint64_t width_fallbacks() const noexcept {
    return width_fallbacks_.load(std::memory_order_relaxed);
  }

  /// Usage cost of agent `v` on the snapshot (kInfCost when disconnected).
  [[nodiscard]] std::uint64_t agent_cost(Vertex v, UsageCost model, Scratch& scratch) const;

  /// Best improving deviation of agent `v` (max model scans swaps only;
  /// pass include_deletions for the deletion clause). Identical results and
  /// move counts to the naive per-candidate-BFS scan.
  [[nodiscard]] std::optional<Deviation> best_deviation(
      Vertex v, UsageCost model, Scratch& scratch, bool include_deletions = false,
      std::uint64_t* moves_checked = nullptr) const;

  /// First improving deviation of agent `v` in scan order.
  [[nodiscard]] std::optional<Deviation> first_deviation(
      Vertex v, UsageCost model, Scratch& scratch, bool include_deletions = false,
      std::uint64_t* moves_checked = nullptr) const;

  /// Builds the snapshot's shared base APSP at the preferred width now, on
  /// the process pool from the calling thread, when scans at that width
  /// read it: their storage is dense (storage_for(n, w, stop_at_first)) and
  /// the budget holds the base. Otherwise, and once built, a no-op. Call it
  /// before a parallel sweep; without it the first lane to need the base
  /// builds it serially.
  void warm_base(bool stop_at_first) const;

  /// Exhaustive certificate over all agents (sum: swap stability; max: swap
  /// stability plus the strict-deletion clause when include_deletions).
  /// Parallel over agents on the process thread pool, one Scratch per lane;
  /// per-agent results fold serially so witnesses are thread-count-invariant.
  [[nodiscard]] EquilibriumCertificate certify(UsageCost model, bool include_deletions) const;

  /// Convenience overloads owning a scratch (single-threaded callers).
  [[nodiscard]] std::optional<Deviation> best_deviation(Vertex v, UsageCost model,
                                                        bool include_deletions = false);
  [[nodiscard]] std::optional<Deviation> first_deviation(Vertex v, UsageCost model,
                                                         bool include_deletions = false);

  // ------------------------------------------------ k-move deviation paths
  //
  // The k-insertion identity d'(v,x) = min(d(v,x), 1 + min_i d(w_i,x)) makes
  // the "does some ≤ k-insertion lower ecc(v)" question a set-cover instance
  // whose candidate masks the engine scores directly from rows it already
  // holds (collect_below over the symmetric APSP rows — DESIGN.md §14); the
  // k-swap variant folds kept-neighbor rows of the one masked matrix of G − v
  // with the k-way min-fold kernel, since (G − D) − v = G − v for every
  // deletion subset D at v. All results — verdicts AND witnesses — are
  // byte-identical to the bncg::naive oracles in core/kstability.

  /// Engine form of naive::insertion_stability_at (one agent, budget k).
  [[nodiscard]] KStabilityReport insertion_stability_at(Vertex v, Vertex k, Scratch& scratch) const;

  /// Engine form of naive::insertion_stability: one shared batched APSP,
  /// per-agent cover instances in parallel, serial fold (+ a monotone
  /// first-unstable cutoff) so the witness is the earliest unstable agent at
  /// every thread count — exactly the naive sequential sweep's answer.
  [[nodiscard]] KStabilityReport insertion_stability(Vertex k) const;

  /// Engine form of naive::max_tolerated_insertions: the cover instance is
  /// budget-independent, so it is built once and re-solved per k.
  [[nodiscard]] Vertex max_tolerated_insertions(Vertex v, Vertex k_max, Scratch& scratch) const;

  /// Engine form of naive::swap_stability_at. Requires deg(v) < 32 (the
  /// subset enumeration is a 32-bit mask, as in the oracle).
  [[nodiscard]] KStabilityReport swap_stability_at(Vertex v, Vertex k, Scratch& scratch) const;

  /// α-game usage sweep for agent v: every add/delete/swap usage from one
  /// masked matrix of G − v, in the naive ClassicGame enumeration order. `owned[w]`
  /// must say whether edge v–w is bought by v (deletes/swaps enumerate owned
  /// neighbors only). The returned reference aliases `scratch`.
  [[nodiscard]] const std::vector<AlphaCandidate>& alpha_scan(
      Vertex v, const std::vector<std::uint8_t>& owned, Scratch& scratch) const;

 private:
  /// The one width dispatch: `attempt(Dist{})` at u8 when preferred, redone
  /// at u16 when it saturates (returns false); returns the last attempt's.
  template <typename Attempt>
  bool at_preferred_width(Attempt&& attempt) const;

  std::optional<Deviation> scan_agent(Vertex v, UsageCost model, bool stop_at_first,
                                      bool include_deletions, std::uint64_t* moves_checked,
                                      Scratch& scratch) const;

  /// Shared prologue of every masked-snapshot scan: marks v's closed
  /// neighborhood, opens the scratch's DistanceProvider on G − v in
  /// `storage` mode, and folds the neighbor rows into min1/min2/argmin with
  /// column v pinned (min1 = min2 = 0, no argmin: 1 + min1 = d_G(v, ·), and
  /// no combine reads column v of a row). False on width saturation.
  template <typename Dist>
  [[nodiscard]] bool neighbor_fold_t(Vertex v, RowStorage storage, Scratch& scratch) const;

  /// The one width-typed basic-game scan body, over rows from the
  /// DistanceProvider in the `storage` mode the policy chose (dense: rows of
  /// G − v by reference from the shared APSP, repaired on read; budgeted:
  /// the row cache under the per-lane byte budget; adaptive: the row cache
  /// until ⌈n/64⌉ misses, then dense). The agent's current cost derives from
  /// the neighbor min-fold; the max model streams its far filter over
  /// far-vertex rows (by symmetry d(f, w₂) = d(w₂, f)), largest M^w first,
  /// so only proven improvers are combined; the sum model prunes candidates
  /// whose triangle-inequality lower bound (Σ M^w − n·M^w_{w₂}) already
  /// meets the old cost, then combines with the provider's lower_row (the
  /// base row of an unrepaired w₂) and repairs w₂ only when that bound beats
  /// the acceptance threshold. Returns false — with `out` and the move count discarded by
  /// the caller — on width saturation (u8: the dispatcher redoes the agent
  /// at u16; budgeted u16: the instance exceeds the 16-bit encoding and the
  /// dispatcher fails loudly).
  template <typename Dist>
  [[nodiscard]] bool scan_agent_t(Vertex v, UsageCost model, RowStorage storage,
                                  bool stop_at_first, bool include_deletions,
                                  std::uint64_t* moves_checked, Scratch& scratch,
                                  std::optional<Deviation>& out) const;

  /// The dense-only paths' one storage check: DenseSlabRefused unless
  /// budget_policy_.dense_fits(n, w).
  void require_dense(DistWidth w) const;

  /// The snapshot's shared base APSP at width Dist, or nullptr when the
  /// total budget cannot hold it beside every lane's slab (then dense
  /// fills traverse G − v instead of deriving it).
  template <typename Dist>
  [[nodiscard]] SharedApsp<Dist>* shared_apsp() const;

  /// Unmasked capped APSP of the snapshot for the insertion paths, which
  /// need full-graph rows: the shared base, or (when the budget cannot hold
  /// it) a traversal into the scratch slab. nullptr on u8 saturation.
  template <typename Dist>
  [[nodiscard]] const Dist* full_apsp_t(Scratch& scratch) const;

  /// Far set + dedup'd coverage sets of agent v over symmetric full-graph
  /// rows, then cover_select at each budget in [k_lo, k_hi]; fills `out`
  /// with the verdict at the first coverable budget (stable otherwise) and,
  /// when `tolerated` is non-null, the max_tolerated_insertions answer.
  template <typename Dist>
  void insertion_report_t(const Dist* apsp, Vertex v, Vertex k_lo, Vertex k_hi, Scratch& scratch,
                          KStabilityReport& out, Vertex* tolerated) const;

  template <typename Dist>
  [[nodiscard]] KStabilityReport insertion_sweep_t(const Dist* apsp, Vertex k) const;

  template <typename Dist>
  [[nodiscard]] bool swap_stability_t(Vertex v, Vertex k, std::uint64_t old_ecc, Scratch& scratch,
                                      KStabilityReport& out) const;

  template <typename Dist>
  [[nodiscard]] bool alpha_scan_t(Vertex v, const std::vector<std::uint8_t>& owned,
                                  Scratch& scratch) const;

  CsrGraph csr_;
  ResourceConfig resources_;
  WidthAndBudgetPolicy budget_policy_;
  bool prefer_u8_ = false;
  /// Shared across the const certify() path's threads; relaxed is enough
  /// for a monotone counter.
  mutable std::atomic<std::uint64_t> width_fallbacks_{0};
  /// The snapshot's unmasked APSP per width, built by warm_base() or the
  /// first scan that reads dense rows (never at construction) and cleared
  /// by rebuild().
  mutable SharedApsp<std::uint8_t> shared8_;
  mutable SharedApsp<std::uint16_t> shared16_;
  Scratch scratch_;  // for the convenience overloads
};

}  // namespace bncg
