#include "core/swap_engine.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <map>

#include "util/thread_pool.hpp"

namespace bncg {

namespace {

// The SIMD kernels signal "unreachable somewhere" with their own constant so
// util/ never depends on core/; it must stay bit-identical to kInfCost for
// the cost comparisons below to read kernel results directly.
static_assert(simd::kInfCostResult == kInfCost);

/// Infinity sentinel of the engine's per-width matrices. u16 keeps the full
/// 0xFFFF traversal sentinel (the historical engine encoding); u8 uses the
/// capped kSearchInf8 with finite range 0..kMaxFiniteFor — a sweep that
/// would exceed it saturates and the agent is redone at u16.
template <typename Dist>
constexpr Dist engine_inf() {
  if constexpr (std::is_same_v<Dist, std::uint8_t>) {
    return kSearchInf8;
  } else {
    return kInfDist16;
  }
}

template <typename Dist>
constexpr Dist engine_max_finite() {
  if constexpr (std::is_same_v<Dist, std::uint8_t>) {
    return kMaxFiniteFor<std::uint8_t>;
  } else {
    return static_cast<std::uint16_t>(kInfDist16 - 1);
  }
}

template <typename Dist>
constexpr DistWidth width_of() {
  return std::is_same_v<Dist, std::uint8_t> ? DistWidth::U8 : DistWidth::U16;
}

// The combine reductions ((n−1) + Σ_u min(m_u, c_u), 1 + max_u min(m_u, c_u),
// 1 + max_u m_u) and the scan-table maintenance loops now live in
// util/simd.hpp as runtime-dispatched kernels; simd::kernels<Dist>() below
// replaces the former local templates with bit-identical semantics.

constexpr std::size_t words_for(std::uint32_t bits) {
  return (static_cast<std::size_t>(bits) + 63) / 64;
}

/// Coverage masks of one cover instance, scored from symmetric all-pairs
/// rows (`row_of(x)` returns row x): candidate w covers far element idx iff
/// row_of(far[idx])[w] < cap (i.e. d(w, far[idx]) + 2 ≤ ecc with
/// cap = ecc − 1). One collect_below per far vertex builds the masks
/// column-sparse; the w-ascending harvest then reproduces the oracle's set
/// order, empty-mask skipping, and (for insertions) its first-label dedup —
/// so cover_select sees byte-identical instances. The via-v path a real
/// insertion also offers can be ignored here: for far x it is ≥ ecc + 1
/// long, which never meets the ≤ ecc − 2 cover condition (DESIGN.md §14),
/// which is why masked and full-graph rows agree on every mask bit.
///
/// `budget` is the counting bound: `budget` sets cover at most
/// budget · max|set| far vertices, so when far_count exceeds that product no
/// cover exists and the harvest/dedup phase (the dominant cost on instances
/// like stars, where every candidate set is a singleton but the far sphere is
/// n − 2) is skipped entirely, leaving `sets` empty. The bound changes no
/// verdict — uncoverable means stable, and stable carries no witness — and
/// max|set| is read straight off the wmask popcounts, so triggering it costs
/// one word scan. The largest set size is always reported via `max_set_out`
/// so callers probing several k values can reapply the bound per k.
template <typename Dist, typename RowOf>
void build_cover_sets(RowOf&& row_of, Vertex n, Vertex v, const Vertex* far,
                      std::uint32_t far_count, std::int32_t cap, bool dedup,
                      std::uint64_t budget, std::uint32_t* max_set_out,
                      AlignedVec<Vertex>& hits, std::vector<std::uint64_t>& wmask,
                      std::vector<std::vector<std::uint64_t>>& sets, std::vector<Vertex>& labels) {
  const simd::Kernels<Dist>& kern = simd::kernels<Dist>();
  const std::size_t words = words_for(far_count);
  wmask.assign(static_cast<std::size_t>(n) * words, 0);
  hits.resize(n);
  for (std::uint32_t idx = 0; idx < far_count; ++idx) {
    const Dist* row = row_of(far[idx]);
    const std::uint32_t count = kern.collect_below(row, n, cap, /*skip=*/v, hits.data());
    for (std::uint32_t i = 0; i < count; ++i) {
      wmask[static_cast<std::size_t>(hits[i]) * words + idx / 64] |= std::uint64_t{1}
                                                                    << (idx % 64);
    }
  }
  std::uint32_t max_set = 0;
  for (Vertex w = 0; w < n; ++w) {
    if (w == v) continue;
    const std::uint64_t* src = wmask.data() + static_cast<std::size_t>(w) * words;
    std::uint32_t size = 0;
    for (std::size_t j = 0; j < words; ++j) {
      size += static_cast<std::uint32_t>(std::popcount(src[j]));
    }
    max_set = std::max(max_set, size);
  }
  if (max_set_out != nullptr) *max_set_out = max_set;
  sets.clear();
  labels.clear();
  if (std::uint64_t{far_count} > budget * std::uint64_t{max_set}) return;
  std::map<std::vector<std::uint64_t>, bool> seen;
  std::vector<std::uint64_t> mask(words);
  for (Vertex w = 0; w < n; ++w) {
    if (w == v) continue;
    const std::uint64_t* src = wmask.data() + static_cast<std::size_t>(w) * words;
    bool nonempty = false;
    for (std::size_t j = 0; j < words; ++j) {
      mask[j] = src[j];
      nonempty |= src[j] != 0;
    }
    if (!nonempty) continue;
    if (dedup) {
      if (auto [it, inserted] = seen.emplace(mask, true); !inserted) continue;
    }
    sets.push_back(mask);
    labels.push_back(w);
  }
}

}  // namespace

RowCacheStats SwapEngine::Scratch::row_cache_stats() const {
  const RowCacheStats a = rows8_.provider.cache_stats();
  const RowCacheStats b = rows16_.provider.cache_stats();
  RowCacheStats out;
  out.hits = a.hits + b.hits;
  out.misses = a.misses + b.misses;
  out.evictions = a.evictions + b.evictions;
  out.contexts = a.contexts + b.contexts;
  out.peak_bytes = a.peak_bytes + b.peak_bytes;
  out.promotions = a.promotions + b.promotions;
  out.slabs_derived = a.slabs_derived + b.slabs_derived;
  out.slabs_traversed = a.slabs_traversed + b.slabs_traversed;
  out.rows_repaired = a.rows_repaired + b.rows_repaired;
  return out;
}

bool force_naive_requested() {
  static const bool forced_naive = [] {
    const char* env = std::getenv("BNCG_FORCE_NAIVE");
    return env != nullptr && *env != '\0' && *env != '0';
  }();
  return forced_naive;
}

template <typename Attempt>
bool SwapEngine::at_preferred_width(Attempt&& attempt) const {
  if (prefer_u8_) {
    if (attempt(std::uint8_t{})) return true;
    width_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  }
  return attempt(std::uint16_t{});
}

bool dense_paths_use_oracle(const Graph& g) {
  return force_naive_requested() || g.num_vertices() >= kInfDist16;
}

void SwapEngine::rebuild(const Graph& g) {
  csr_.rebuild(g);
  shared8_.reset();
  shared16_.reset();
  width_fallbacks_.store(0, std::memory_order_relaxed);
  prefer_u8_ = false;
  const Vertex n = csr_.num_vertices();
  // One policy object per snapshot: the width-preference probe (formerly an
  // in-engine csr_bfs, now budget-aware and n-unbounded) plus the per-width
  // row-storage decision under the per-lane budget share.
  // Instances at n ≥ 65535 — beyond the dense scan's 16-bit encoding — are
  // accepted here and always run budgeted.
  budget_policy_ = WidthAndBudgetPolicy(resources_);
  if (n == 0) return;
  prefer_u8_ = budget_policy_.probe_prefers_u8(csr_, scratch_.bfs_);
}

void SwapEngine::require_dense(DistWidth w) const {
  const Vertex n = csr_.num_vertices();
  if (budget_policy_.dense_fits(n, w)) return;
  const std::uint64_t slab = std::uint64_t{n} * n * (w == DistWidth::U8 ? 1 : 2);
  const std::uint64_t lane = budget_policy_.lane_budget();
  throw DenseSlabRefused(
      "dense slab refused: the k-move and α-game engine paths need an n×n " +
      std::string(dist_width_name(w)) + " slab of " + std::to_string(slab) +
      " bytes (n = " + std::to_string(n) + "), but the per-lane budget is " +
      (lane == 0 ? std::string("unlimited") : std::to_string(lane) + " bytes") +
      (n >= kInfDist16 ? " and n is beyond the dense 16-bit encoding (n < 65535)" : ""));
}

std::uint64_t SwapEngine::agent_cost(Vertex v, UsageCost model, Scratch& s) const {
  const Vertex n = csr_.num_vertices();
  BNCG_REQUIRE(v < n, "vertex id out of range");
  BNCG_REQUIRE(n < kInfDist16, "agent_cost runs a 16-bit BFS (n < 65535)");
  s.base_.resize(n);
  const BfsResult r = csr_bfs(csr_, v, MaskedEdge{}, s.base_.data(), s.bfs_);
  if (!r.spans(n)) return kInfCost;
  return model == UsageCost::Sum ? r.dist_sum : r.ecc;
}

template <typename Dist>
SharedApsp<Dist>* SwapEngine::shared_apsp() const {
  if (!budget_policy_.shared_slab_fits(csr_.num_vertices(), width_of<Dist>())) return nullptr;
  if constexpr (std::is_same_v<Dist, std::uint8_t>) {
    return &shared8_;
  } else {
    return &shared16_;
  }
}

void SwapEngine::warm_base(bool stop_at_first) const {
  const Vertex n = csr_.num_vertices();
  if (n == 0) return;
  const DistWidth w = preferred_width();
  if (budget_policy_.storage_for(n, w, stop_at_first) != RowStorage::Dense) return;
  if (w == DistWidth::U8) {
    if (SharedApsp<std::uint8_t>* shared = shared_apsp<std::uint8_t>()) {
      shared->warm(csr_, engine_inf<std::uint8_t>(), engine_max_finite<std::uint8_t>());
    }
  } else if (SharedApsp<std::uint16_t>* shared = shared_apsp<std::uint16_t>()) {
    shared->warm(csr_, engine_inf<std::uint16_t>(), engine_max_finite<std::uint16_t>());
  }
}

template <typename Dist>
bool SwapEngine::neighbor_fold_t(Vertex v, RowStorage storage, Scratch& s) const {
  constexpr Dist kInf = engine_inf<Dist>();
  const simd::Kernels<Dist>& kern = simd::kernels<Dist>();
  const Vertex n = csr_.num_vertices();
  const auto nbrs = csr_.neighbors(v);

  // Closed-neighborhood marks: candidates w₂ must be fresh edges (swapping
  // onto an existing edge is a deletion and never improves either model).
  s.is_nbr_.assign(n, 0);
  s.is_nbr_[v] = 1;
  for (const Vertex w : nbrs) s.is_nbr_[w] = 1;

  // Every row below is a row of G − v, the source-removal identity's
  // traversal bill. Dense storage reads the snapshot's shared APSP by
  // reference and repairs a row only where v's removal changes it, on its
  // first read; budgeted storage opens a row-cache context and pays per row
  // on first touch; adaptive storage pays per row until the provider
  // promotes itself to dense.
  auto& rows = s.rows<Dist>();
  auto& provider = rows.provider;
  if (!provider.begin(csr_, /*masked_vertex=*/v, kInf, engine_max_finite<Dist>(), storage,
                      budget_policy_.lane_budget(), rows.apsp, s.bfs_, shared_apsp<Dist>())) {
    return false;
  }

  // Elementwise min / argmin / second-min over the neighbor rows, so each
  // removed edge's kept-neighbor profile M^w is an O(n) select. Rows are
  // prefetched ≤ 64 per traversal and folded once each.
  rows.min1.assign(n, kInf);
  rows.min2.assign(n, kInf);
  s.argmin_.assign(n, kNoVertex);
  for (std::size_t i = 0; i < nbrs.size(); i += 64) {
    const std::size_t chunk = std::min<std::size_t>(64, nbrs.size() - i);
    const std::span<const Vertex> group(nbrs.data() + i, chunk);
    if (!provider.prefetch(group, s.bfs_)) return false;
    for (const Vertex z : group) {
      const Dist* row = provider.row(z, s.bfs_);
      if (row == nullptr) return false;
      kern.scan_min_update(rows.min1.data(), rows.min2.data(), s.argmin_.data(), row, z, n);
    }
  }
  // With min1[v] pinned to 0, 1 + min1 is exactly d_G(v, ·) (source-removal
  // identity at N' = N(v)). Column v of a row served by reference holds
  // d(z, v), not ∞, so the fold's entries there are pinned whole: with
  // min2[v] = 0 and no argmin, select_mrow copies 0 into every M^w, every
  // combine's min(M^w_v, c_v) is 0 whatever c_v holds, and the far and
  // cover filters skip v — no kernel reads column v of a row.
  rows.min1[v] = 0;
  rows.min2[v] = 0;
  s.argmin_[v] = kNoVertex;
  return true;
}

template <typename Dist>
bool SwapEngine::scan_agent_t(Vertex v, UsageCost model, RowStorage storage, bool stop_at_first,
                              bool include_deletions, std::uint64_t* moves_checked, Scratch& s,
                              std::optional<Deviation>& out) const {
  constexpr Dist kInf = engine_inf<Dist>();
  const simd::Kernels<Dist>& kern = simd::kernels<Dist>();
  const Vertex n = csr_.num_vertices();
  BNCG_REQUIRE(v < n, "vertex id out of range");

  const auto nbrs = csr_.neighbors(v);
  out.reset();
  if (nbrs.empty()) return true;
  if (!neighbor_fold_t<Dist>(v, storage, s)) return false;
  auto& rows = s.rows<Dist>();
  auto& provider = rows.provider;

  // Candidates per removed edge (every vertex outside the closed
  // neighborhood) — the bulk move-count term of the max model, where every
  // candidate is "checked" by the far filter whether or not its row is ever
  // read.
  const std::uint64_t candidate_count = n - 1 - nbrs.size();

  // The agent's current cost derives from the fold it already paid for —
  // no unmasked BFS.
  const std::uint64_t old_cost =
      model == UsageCost::Sum ? kern.combine_sum(rows.min1.data(), rows.min1.data(), n, kInf)
                              : kern.deletion_ecc(rows.min1.data(), n, kInf);

  rows.mrow.resize(n);
  s.far_.resize(n);

  std::optional<Deviation> best;
  for (const Vertex w : nbrs) {
    // M^w_u = min_{z ∈ N(v)∖{w}} d_{G−v}(z, u).
    Dist* m = rows.mrow.data();
    kern.select_mrow(m, rows.min1.data(), rows.min2.data(), s.argmin_.data(), w, n);

    if (model == UsageCost::Max && include_deletions) {
      // Deletion clause: removing {v, w} must *strictly* increase v's local
      // diameter; 1 + M^w is exactly the post-deletion distance profile.
      if (moves_checked != nullptr) ++*moves_checked;
      const std::uint64_t del_cost = kern.deletion_ecc(m, n, kInf);
      if (del_cost <= old_cost) {
        const Deviation dev{{v, w, w}, old_cost, del_cost, Deviation::Kind::NonCriticalDelete};
        if (!best || dev.cost_after < best->cost_after) best = dev;
        if (stop_at_first) {
          out = best;
          return true;
        }
      }
    }

    if (model == UsageCost::Sum) {
      // Σ-prune: for any candidate w₂ with A = M^w_{w₂} finite, the kept
      // neighbor z* attaining A gives m_u ≤ A + c_u for every u (triangle
      // through w₂), so min(m_u, c_u) ≥ m_u − A and
      //   cost'(v) ≥ combine_sum(M^w, M^w) − n·A.
      // When that bound already meets old_cost the combine could only
      // confirm a non-improvement — prune without reading the row (pruned
      // candidates still count as checked). A = ∞ (w₂ outside the kept
      // component) can still repair connectivity, so it always evaluates;
      // Σ M^w = ∞ with A finite means some u is unreachable from w₂ too, so
      // cost' = ∞ — always prune.
      const std::uint64_t mm = kern.combine_sum(m, m, n, kInf);
      for (Vertex w2 = 0; w2 < n; ++w2) {
        if (s.is_nbr_[w2] != 0) continue;
        if (moves_checked != nullptr) ++*moves_checked;
        const std::uint64_t a = m[w2];
        if (a < kInf) {
          if (mm == kInfCost) continue;
          if (old_cost != kInfCost && mm >= old_cost + std::uint64_t{n} * a) continue;
        }
        // A row of G − v no shorter than the base row d_G(w₂, ·) it is
        // repaired from: combined with the base row, the cost is a lower
        // bound, exact when w₂'s row is unchanged. A bound that already
        // meets the acceptance threshold (strict '<': the best so far, else
        // old_cost) leaves the row unrepaired.
        bool exact = true;
        const Dist* c = provider.lower_row(w2, s.bfs_, exact);
        if (c == nullptr) return false;
        std::uint64_t new_cost = kern.combine_sum(m, c, n, kInf);
        if (!exact) {
          if (new_cost >= (best ? best->cost_after : old_cost)) continue;
          c = provider.row(w2, s.bfs_);
          if (c == nullptr) return false;
          new_cost = kern.combine_sum(m, c, n, kInf);
        }
        if (new_cost >= old_cost) continue;
        if (!best || new_cost < best->cost_after) {
          best = Deviation{{v, w, w2}, old_cost, new_cost, Deviation::Kind::ImprovingSwap};
          if (stop_at_first) {
            out = best;
            return true;
          }
        }
      }
    } else {
      // Far set of the removed edge: vertices the kept neighbors do not
      // already serve within old_cost − 1. The swap improves iff candidate
      // w₂ covers the whole far set within old_cost − 2 (reads "repair
      // connectivity" when old_cost = ∞). cap is signed: old_cost = 1 makes
      // improvement impossible and the far test rejects everything.
      //
      // The far test streams column-wise: by symmetry d(f, w₂) = d(w₂, f),
      // so pass i filters the survivors of passes 0..i−1 against far row
      // f_i. Survival is conjunctive, so the pass order is free; largest
      // M^w first (ids ascending on ties) visits the most exclusive far
      // vertices first and empties the list soonest — on equilibrium
      // instances after a handful of rows. Survivors are *proven* improvers
      // (cost' ≤ cap + 1 < old_cost), so only their rows are combined.
      const std::int32_t cap =
          old_cost == kInfCost ? std::int32_t{kInf} - 1 : static_cast<std::int32_t>(old_cost) - 2;
      const std::uint32_t far_count = kern.collect_above(m, n, cap, /*skip=*/v, s.far_.data());
      if (moves_checked != nullptr) *moves_checked += candidate_count;
      std::sort(s.far_.data(), s.far_.data() + far_count,
                [&](Vertex a, Vertex b) { return m[a] > m[b] || (m[a] == m[b] && a < b); });

      auto& surv = s.survivors_;
      auto& next = s.survivors_next_;
      surv.clear();
      for (Vertex w2 = 0; w2 < n; ++w2) {
        if (s.is_nbr_[w2] == 0) surv.push_back(w2);
      }
      for (std::uint32_t i = 0; i < far_count && !surv.empty(); ++i) {
        const Dist* f = provider.row(s.far_[i], s.bfs_);
        if (f == nullptr) return false;
        next.clear();
        for (const Vertex w2 : surv) {
          if (static_cast<std::int32_t>(f[w2]) <= cap) next.push_back(w2);
        }
        surv.swap(next);
      }

      for (const Vertex w2 : surv) {
        const Dist* c = provider.row(w2, s.bfs_);
        if (c == nullptr) return false;
        const std::uint64_t new_cost = kern.combine_max(m, c, n, kInf);
        if (!best || new_cost < best->cost_after ||
            (best->kind == Deviation::Kind::NonCriticalDelete &&
             new_cost <= best->cost_after)) {
          best = Deviation{{v, w, w2}, old_cost, new_cost, Deviation::Kind::ImprovingSwap};
          if (stop_at_first) {
            // A first-improver scan checks the candidates in ascending
            // order only up to this w₂ — take back the bulk add for the
            // ones after it.
            if (moves_checked != nullptr) {
              std::uint64_t up_to = 0;
              for (Vertex x = 0; x <= w2; ++x) up_to += s.is_nbr_[x] == 0 ? 1 : 0;
              *moves_checked -= candidate_count - up_to;
            }
            out = best;
            return true;
          }
        }
      }
    }
  }
  out = best;
  return true;
}

std::optional<Deviation> SwapEngine::scan_agent(Vertex v, UsageCost model, bool stop_at_first,
                                                bool include_deletions,
                                                std::uint64_t* moves_checked,
                                                Scratch& s) const {
  const Vertex n = csr_.num_vertices();
  std::optional<Deviation> out;
  // Each attempt counts into a fresh local, so a saturating u8 sweep leaves
  // the caller's count untouched — the u16 redo recounts the identical scan
  // order, keeping move counts width-independent. Budgeted u16 can saturate
  // (a masked diameter beyond 65534), and there is no wider width to redo at.
  std::uint64_t moves = 0;
  std::uint64_t* counter = moves_checked != nullptr ? &moves : nullptr;
  BNCG_REQUIRE(at_preferred_width([&](auto tag) {
                 using Dist = decltype(tag);
                 moves = 0;
                 return scan_agent_t<Dist>(
                     v, model, budget_policy_.storage_for(n, width_of<Dist>(), stop_at_first),
                     stop_at_first, include_deletions, counter, s, out);
               }),
               "u16 scan saturated: some masked distance exceeds the 16-bit encoding; this "
               "instance is beyond the engine's distance range");
  if (counter != nullptr) *moves_checked += moves;
  return out;
}

std::optional<Deviation> SwapEngine::best_deviation(Vertex v, UsageCost model, Scratch& scratch,
                                                    bool include_deletions,
                                                    std::uint64_t* moves_checked) const {
  return scan_agent(v, model, /*stop_at_first=*/false, include_deletions, moves_checked, scratch);
}

std::optional<Deviation> SwapEngine::first_deviation(Vertex v, UsageCost model, Scratch& scratch,
                                                     bool include_deletions,
                                                     std::uint64_t* moves_checked) const {
  return scan_agent(v, model, /*stop_at_first=*/true, include_deletions, moves_checked, scratch);
}

std::optional<Deviation> SwapEngine::best_deviation(Vertex v, UsageCost model,
                                                    bool include_deletions) {
  return best_deviation(v, model, scratch_, include_deletions);
}

std::optional<Deviation> SwapEngine::first_deviation(Vertex v, UsageCost model,
                                                     bool include_deletions) {
  return first_deviation(v, model, scratch_, include_deletions);
}

EquilibriumCertificate SwapEngine::certify(UsageCost model, bool include_deletions) const {
  const Vertex n = csr_.num_vertices();
  EquilibriumCertificate cert;
  std::uint64_t moves = 0;

  // Per-agent results land in a vector and are folded serially afterwards,
  // so the witness tie-break (earliest agent among equal cost_after) matches
  // the serial naive certifiers under any lane count — a parallel reduction
  // would pick among ties in thread-arrival order. Move counts are per-lane
  // slots (cache-line padded: they are bumped per candidate) summed in lane
  // order; sums commute, so the fold order is cosmetic there.
  std::vector<std::optional<Deviation>> per_agent(n);
  ThreadPool& pool = ThreadPool::global();
  struct alignas(64) LaneCount {
    std::uint64_t moves = 0;
  };
  std::vector<LaneCount> lane_moves(pool.size());
  warm_base(/*stop_at_first=*/false);
  {
    std::vector<Scratch> scratch(pool.size());
    pool.parallel_for(n, 1, [&](std::uint64_t v, unsigned tid) {
      per_agent[v] = best_deviation(static_cast<Vertex>(v), model, scratch[tid],
                                    include_deletions, &lane_moves[tid].moves);
    });
  }
  for (const LaneCount& lane : lane_moves) moves += lane.moves;

  std::optional<Deviation> best;
  for (Vertex v = 0; v < n; ++v) {
    const auto& dev = per_agent[v];
    if (dev && (!best || dev->cost_after < best->cost_after)) best = dev;
  }

  cert.moves_checked = moves;
  cert.witness = best;
  cert.is_equilibrium = !best.has_value();
  return cert;
}

// --------------------------------------------------- k-move deviation paths

template <typename Dist>
const Dist* SwapEngine::full_apsp_t(Scratch& s) const {
  const Vertex n = csr_.num_vertices();
  require_dense(width_of<Dist>());
  if (SharedApsp<Dist>* shared = shared_apsp<Dist>()) {
    return shared->get(csr_, engine_inf<Dist>(), engine_max_finite<Dist>(), s.bfs_);
  }
  auto& rows = s.rows<Dist>();
  rows.apsp.resize(static_cast<std::size_t>(n) * n);
  return csr_apsp_capped<Dist>(csr_, MaskedEdge{}, rows.apsp.data(), s.bfs_,
                               /*masked_vertex=*/kNoVertex, engine_inf<Dist>(),
                               engine_max_finite<Dist>())
             ? rows.apsp.data()
             : nullptr;
}

template <typename Dist>
void SwapEngine::insertion_report_t(const Dist* apsp, Vertex v, Vertex k_lo, Vertex k_hi,
                                    Scratch& s, KStabilityReport& out, Vertex* tolerated) const {
  constexpr Dist kInf = engine_inf<Dist>();
  const simd::Kernels<Dist>& kern = simd::kernels<Dist>();
  const Vertex n = csr_.num_vertices();
  out = KStabilityReport{};
  out.witness_vertex = v;
  if (tolerated != nullptr) *tolerated = k_hi;

  const Dist* row_v = apsp + static_cast<std::size_t>(v) * n;
  std::uint32_t row_sum = 0;
  Dist ecc = 0;
  kern.row_sum_max(row_v, n, &row_sum, &ecc);
  BNCG_REQUIRE(ecc < kInf, "k-stability analysis requires a connected graph");
  if (ecc <= 1 || k_hi == 0) return;

  // Far sphere: ecc is the row max, so "above ecc − 1" is exactly "== ecc".
  s.far_.resize(n);
  const std::int32_t cap = static_cast<std::int32_t>(ecc) - 1;
  const std::uint32_t far_count = kern.collect_above(row_v, n, cap, /*skip=*/v, s.far_.data());

  // The counting bound (see build_cover_sets) is probed at the largest k in
  // the requested range: when even k_hi sets cannot cover the far sphere the
  // harvest is skipped and every k below inherits the verdict via the same
  // bound in the per-k loop. The naive oracle deliberately keeps the plain
  // search, so the suites certify the bound changes no verdict.
  std::vector<std::vector<std::uint64_t>> sets;
  std::vector<Vertex> labels;
  std::uint32_t max_set = 0;
  const auto row_of = [&](Vertex x) { return apsp + static_cast<std::size_t>(x) * n; };
  build_cover_sets<Dist>(row_of, n, v, s.far_.data(), far_count, cap, /*dedup=*/true,
                   /*budget=*/k_hi, &max_set, s.hits_, s.masks_, sets, labels);

  for (Vertex k = std::max<Vertex>(k_lo, 1); k <= k_hi; ++k) {
    if (std::uint64_t{far_count} > std::uint64_t{k} * max_set) continue;
    if (const auto selection = cover_select(far_count, sets, k)) {
      out.stable = false;
      for (const std::size_t c : *selection) out.witness_endpoints.push_back(labels[c]);
      if (tolerated != nullptr) *tolerated = k - 1;
      return;
    }
  }
}

KStabilityReport SwapEngine::insertion_stability_at(Vertex v, Vertex k, Scratch& s) const {
  BNCG_REQUIRE(v < csr_.num_vertices(), "vertex id out of range");
  KStabilityReport out;
  (void)at_preferred_width([&](auto tag) {
    using Dist = decltype(tag);
    const Dist* apsp = full_apsp_t<Dist>(s);
    if (apsp == nullptr) return false;
    insertion_report_t<Dist>(apsp, v, k, k, s, out, nullptr);
    return true;
  });
  return out;
}

Vertex SwapEngine::max_tolerated_insertions(Vertex v, Vertex k_max, Scratch& s) const {
  BNCG_REQUIRE(v < csr_.num_vertices(), "vertex id out of range");
  KStabilityReport out;
  Vertex tolerated = k_max;
  (void)at_preferred_width([&](auto tag) {
    using Dist = decltype(tag);
    const Dist* apsp = full_apsp_t<Dist>(s);
    if (apsp == nullptr) return false;
    insertion_report_t<Dist>(apsp, v, 1, k_max, s, out, &tolerated);
    return true;
  });
  return tolerated;
}

template <typename Dist>
KStabilityReport SwapEngine::insertion_sweep_t(const Dist* apsp, Vertex k) const {
  const Vertex n = csr_.num_vertices();
  // Connectivity is checked up front on row 0 (spanning from one vertex
  // spans from all) so the per-agent REQUIRE never fires inside the pool.
  BNCG_REQUIRE(*std::max_element(apsp, apsp + n) < engine_inf<Dist>(),
               "k-stability analysis requires a connected graph");

  // Per-agent instances are independent given the shared rows; results land
  // in per-agent slots and fold serially, so the reported witness is the
  // EARLIEST unstable agent — the naive sequential sweep's answer — at every
  // thread count. The atomic cutoff only ever skips agents strictly above
  // the current minimum unstable id, which cannot be the answer, so the
  // early exit is a pure work saver with no observable effect.
  std::vector<KStabilityReport> per_agent(n);
  std::vector<std::uint8_t> unstable(n, 0);
  std::atomic<Vertex> first_bad{n};
  ThreadPool& pool = ThreadPool::global();
  {
    std::vector<Scratch> scratch(pool.size());
    pool.parallel_for(n, 1, [&](std::uint64_t vi, unsigned tid) {
      const Vertex v = static_cast<Vertex>(vi);
      if (v > first_bad.load(std::memory_order_relaxed)) return;
      KStabilityReport report;
      insertion_report_t<Dist>(apsp, v, k, k, scratch[tid], report, nullptr);
      if (report.stable) return;
      per_agent[v] = std::move(report);
      unstable[v] = 1;
      Vertex current = first_bad.load(std::memory_order_relaxed);
      while (v < current &&
             !first_bad.compare_exchange_weak(current, v, std::memory_order_relaxed)) {
      }
    });
  }
  for (Vertex v = 0; v < n; ++v) {
    if (unstable[v] != 0) return per_agent[v];
  }
  return {};
}

KStabilityReport SwapEngine::insertion_stability(Vertex k) const {
  if (csr_.num_vertices() == 0) return {};
  // The whole sweep shares one *unmasked* batched APSP: the insertion cover
  // condition reads full-graph rows only (see build_cover_sets), so no
  // per-agent traversal survives.
  Scratch s;
  KStabilityReport out;
  (void)at_preferred_width([&](auto tag) {
    using Dist = decltype(tag);
    const Dist* apsp = full_apsp_t<Dist>(s);
    if (apsp == nullptr) return false;
    out = insertion_sweep_t<Dist>(apsp, k);
    return true;
  });
  return out;
}

template <typename Dist>
bool SwapEngine::swap_stability_t(Vertex v, Vertex k, std::uint64_t old_ecc, Scratch& s,
                                  KStabilityReport& out) const {
  constexpr Dist kInf = engine_inf<Dist>();
  const simd::Kernels<Dist>& kern = simd::kernels<Dist>();
  const Vertex n = csr_.num_vertices();
  out = KStabilityReport{};
  out.witness_vertex = v;

  // The far filter must see the inf sentinel as "far" (deletions can push
  // vertices out of v's component entirely, matching the oracle's kInfDist
  // inclusion); that reading needs old_ecc − 1 to stay below the sentinel.
  if (static_cast<std::int32_t>(old_ecc) - 1 > static_cast<std::int32_t>(engine_max_finite<Dist>())) {
    return false;
  }

  const auto nbrs = csr_.neighbors(v);
  const Vertex deg = static_cast<Vertex>(nbrs.size());
  BNCG_REQUIRE(deg < 32, "swap-stability subset enumeration requires deg(v) < 32");

  // One masked row source of G − v serves every deletion subset D: (G − D)
  // − v is G − v, so each subset only changes WHICH neighbor rows fold into
  // v's post-deletion profile, never the rows themselves. Column v of a
  // row may hold d(x, v): the fold's column v only meets the far filter,
  // which skips v, and cover masks skip v too.
  require_dense(width_of<Dist>());
  auto& rows = s.rows<Dist>();
  auto& provider = rows.provider;
  if (!provider.begin(csr_, /*masked_vertex=*/v, kInf, engine_max_finite<Dist>(),
                      RowStorage::Dense, budget_policy_.lane_budget(), rows.apsp, s.bfs_,
                      shared_apsp<Dist>())) {
    return false;
  }
  // A dense context passed its width verdict in begin(): rows never fail.
  const auto row_of = [&](Vertex x) { return provider.row(x, s.bfs_); };
  rows.arow.resize(n);
  s.far_.resize(n);

  const Vertex j_max = std::min<Vertex>(k, deg);
  std::vector<std::vector<std::uint64_t>> sets;
  std::vector<Vertex> labels;
  const std::int32_t cover_cap = static_cast<std::int32_t>(old_ecc) - 1;
  for (Vertex j = 1; j <= j_max; ++j) {
    for (std::uint32_t mask = 0; mask < (1u << deg); ++mask) {
      if (static_cast<Vertex>(__builtin_popcount(mask)) != j) continue;
      // KD = min over KEPT neighbor rows, folded in ascending endpoint order
      // (DESIGN.md §14); 1 + KD is v's distance profile in G − D, so the far
      // set is everything 1 + KD pushes to ≥ old_ecc — collect_above at
      // old_ecc − 2, with empty-fold ∞ entries passing the filter.
      Dist* kd = rows.arow.data();
      std::fill(kd, kd + n, kInf);
      for (Vertex i = 0; i < deg; ++i) {
        if ((mask & (1u << i)) != 0) continue;
        kern.min_fold(kd, row_of(nbrs[i]), n);
      }
      const std::uint32_t far_count = kern.collect_above(
          kd, n, static_cast<std::int32_t>(old_ecc) - 2, /*skip=*/v, s.far_.data());
      build_cover_sets<Dist>(row_of, n, v, s.far_.data(), far_count, cover_cap,
                       /*dedup=*/false, /*budget=*/j, nullptr, s.hits_, s.masks_, sets, labels);
      if (const auto selection = cover_select(far_count, sets, j)) {
        out.stable = false;
        for (Vertex i = 0; i < deg; ++i) {
          if ((mask & (1u << i)) != 0) out.witness_deletions.push_back(nbrs[i]);
        }
        for (const std::size_t c : *selection) out.witness_endpoints.push_back(labels[c]);
        return true;
      }
    }
  }
  return true;
}

KStabilityReport SwapEngine::swap_stability_at(Vertex v, Vertex k, Scratch& s) const {
  BNCG_REQUIRE(v < csr_.num_vertices(), "vertex id out of range");
  const std::uint64_t old_ecc = agent_cost(v, UsageCost::Max, s);
  BNCG_REQUIRE(old_ecc != kInfCost, "swap-stability analysis requires a connected graph");
  KStabilityReport out;
  out.witness_vertex = v;
  if (old_ecc <= 1 || k == 0) return out;
  (void)at_preferred_width([&](auto tag) {
    return swap_stability_t<decltype(tag)>(v, k, old_ecc, s, out);
  });
  return out;
}

template <typename Dist>
bool SwapEngine::alpha_scan_t(Vertex v, const std::vector<std::uint8_t>& owned,
                              Scratch& s) const {
  constexpr Dist kInf = engine_inf<Dist>();
  const simd::Kernels<Dist>& kern = simd::kernels<Dist>();
  const Vertex n = csr_.num_vertices();
  s.alpha_.clear();

  // Unlike the basic-game scan, the α-game has ADD moves, so even an
  // isolated agent fills the masked matrix: an added edge v–w gives the profile
  // 1 + min(min1, c_w) (the source-removal identity over N(v) ∪ {w}). The
  // α paths are dense-only: their rows never fail once the fold's begin()
  // passed its width verdict.
  require_dense(width_of<Dist>());
  if (!neighbor_fold_t<Dist>(v, RowStorage::Dense, s)) return false;
  auto& rows = s.rows<Dist>();
  const auto row_of = [&](Vertex x) { return rows.provider.row(x, s.bfs_); };
  rows.mrow.resize(n);

  // Adds, ascending endpoint (the naive loop order).
  for (Vertex w = 0; w < n; ++w) {
    if (s.is_nbr_[w] != 0) continue;
    const std::uint64_t usage = kern.combine_sum(rows.min1.data(), row_of(w), n, kInf);
    s.alpha_.push_back({AlphaCandidate::Kind::Add, w, 0, usage});
  }

  // Deletes then swaps, per owned neighbor in ascending (sorted) order.
  for (const Vertex w : csr_.neighbors(v)) {
    if (owned[w] == 0) continue;
    Dist* m = rows.mrow.data();
    kern.select_mrow(m, rows.min1.data(), rows.min2.data(), s.argmin_.data(), w, n);
    // Post-deletion profile is 1 + M^w; combine_sum(m, m) = (n−1) + Σ M^w.
    s.alpha_.push_back({AlphaCandidate::Kind::Delete, w, 0, kern.combine_sum(m, m, n, kInf)});
    for (Vertex w2 = 0; w2 < n; ++w2) {
      if (s.is_nbr_[w2] != 0) continue;
      const std::uint64_t usage = kern.combine_sum(m, row_of(w2), n, kInf);
      s.alpha_.push_back({AlphaCandidate::Kind::Swap, w, w2, usage});
    }
  }
  return true;
}

const std::vector<AlphaCandidate>& SwapEngine::alpha_scan(Vertex v,
                                                          const std::vector<std::uint8_t>& owned,
                                                          Scratch& s) const {
  BNCG_REQUIRE(v < csr_.num_vertices(), "vertex id out of range");
  BNCG_REQUIRE(owned.size() >= csr_.num_vertices(), "owned flags must cover every vertex");
  (void)at_preferred_width([&](auto tag) { return alpha_scan_t<decltype(tag)>(v, owned, s); });
  return s.alpha_;
}

}  // namespace bncg
