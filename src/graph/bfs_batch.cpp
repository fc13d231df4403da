#include "graph/bfs_batch.hpp"

#include "util/simd.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <type_traits>

namespace bncg {

/// Grants the traversal kernels access to workspace internals without
/// exposing mutable buffers in the public interface (mirrors BfsAccess).
struct BatchBfsAccess {
  static std::vector<std::uint64_t>& cur(BatchBfsWorkspace& ws) { return ws.cur_; }
  static std::vector<std::uint64_t>& next(BatchBfsWorkspace& ws) { return ws.next_; }
  static std::vector<std::uint64_t>& visited(BatchBfsWorkspace& ws) { return ws.visited_; }
  static std::vector<Vertex>& queue(BatchBfsWorkspace& ws) { return ws.queue_; }
  static std::vector<Vertex>& frontier(BatchBfsWorkspace& ws) { return ws.frontier_; }
  static std::vector<Vertex>& touched(BatchBfsWorkspace& ws) { return ws.touched_; }
  static std::vector<Vertex>& spare(BatchBfsWorkspace& ws) { return ws.spare_; }
  static std::vector<std::uint32_t>& stamp(BatchBfsWorkspace& ws) { return ws.stamp_; }
  template <typename Dist>
  static std::vector<Dist>& staging(BatchBfsWorkspace& ws) {
    if constexpr (std::is_same_v<Dist, std::uint8_t>) {
      return ws.rows8_;
    } else {
      return ws.rows16_;
    }
  }
};

namespace {

/// Plain queue BFS over the snapshot (the sparse / tiny-batch fallback).
/// Writes `inf_value` for unreachable entries and exact distances otherwise;
/// returns false (matrix row unspecified) when a finite distance would
/// exceed `max_finite`. Levels are tracked in Vertex width, so the
/// saturation test itself can never wrap the narrow storage type.
template <typename Dist>
[[nodiscard]] bool queue_bfs(const CsrGraph& g, Vertex src, MaskedEdge mask, Dist* dist,
                             std::vector<Vertex>& queue, Vertex masked_vertex, Dist inf_value,
                             Dist max_finite, BfsResult& result) {
  const Vertex n = g.num_vertices();
  std::fill(dist, dist + n, inf_value);
  queue.clear();
  queue.reserve(n);
  result = {};
  if (src == masked_vertex) return true;  // the vertex is absent: all-∞ row
  dist[src] = 0;
  queue.push_back(src);

  result.reached = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Vertex u = queue[head];
    const Vertex du = dist[u];
    result.dist_sum += du;
    result.ecc = std::max<Vertex>(result.ecc, du);
    const Vertex nd = du + 1;
    for (const Vertex t : g.neighbors(u)) {
      if (dist[t] != inf_value) continue;
      if (t == masked_vertex) continue;
      if (mask.active() && mask.hides(u, t)) continue;
      if (nd > max_finite) return false;  // saturated: unrepresentable finite distance
      dist[t] = static_cast<Dist>(nd);
      queue.push_back(t);
      ++result.reached;
    }
  }
  return true;
}

/// Word-parallel level-synchronous BFS: one frontier bit per source,
/// direction-optimizing per level.
///
/// Fat levels run the **pull** formulation: every unsettled vertex gathers
/// the OR of its neighbors' previous-level frontier words in one streaming
/// sweep over the CSR arrays — sequential offset/target reads, no
/// worklists, no per-edge branches. Thin levels (frontier below n/8
/// vertices — the first couple of hops from ≤ 64 sources, and the last
/// stragglers) run a **push** step instead: only the frontier's own edges
/// are touched, with a level-stamped first-touch scratch so nothing is
/// zeroed per level. Both steps settle identical bits at identical levels,
/// so the mode sequence is invisible in the output; the masked edge costs
/// one extra comparison on whichever side touches it.
///
/// Distance rows are written once per settled bit — the settles of one
/// level sweep u in ascending order, so the writes form ≤ 64 interleaved
/// sequential streams (a transposed-tile variant was measured slower: the
/// extra full-matrix transpose pass costs more than the stream writes) —
/// and unreached entries are back-filled with `inf_value` at the end, so
/// the common connected case never pays an O(batch·n) infinity pre-fill.
///
/// Returns false the moment any bit settles at a level above `max_finite`
/// (the exact saturation condition — a frontier that dies at max_finite is
/// not saturation).
template <typename Dist>
[[nodiscard]] bool bitparallel_batch(const CsrGraph& g, std::span<const Vertex> sources,
                                     MaskedEdge mask, Dist* rows, std::size_t stride,
                                     BatchBfsWorkspace& ws, Vertex masked_vertex, Dist inf_value,
                                     Dist max_finite) {
  const Vertex n = g.num_vertices();
  auto& cur = BatchBfsAccess::cur(ws);
  auto& next = BatchBfsAccess::next(ws);
  auto& visited = BatchBfsAccess::visited(ws);
  auto& frontier = BatchBfsAccess::frontier(ws);
  auto& touched = BatchBfsAccess::touched(ws);
  auto& spare = BatchBfsAccess::spare(ws);
  auto& stamp = BatchBfsAccess::stamp(ws);
  cur.assign(n, 0);
  next.resize(n);
  visited.assign(n, 0);
  stamp.assign(n, 0);
  frontier.clear();

  const std::uint64_t batch_mask =
      sources.size() == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << sources.size()) - 1;
  // A masked vertex starts saturated: it never settles, never enters a
  // frontier, and its cur word stays 0, so nothing traverses through it.
  if (masked_vertex < n) {
    visited[masked_vertex] = batch_mask;
    for (std::size_t i = 0; i < sources.size(); ++i) rows[i * stride + masked_vertex] = inf_value;
  }
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const Vertex s = sources[i];
    if (s == masked_vertex) continue;  // absent source: row back-fills to ∞
    if (cur[s] == 0) frontier.push_back(s);
    visited[s] |= std::uint64_t{1} << i;
    cur[s] |= std::uint64_t{1} << i;
    rows[i * stride + s] = 0;
  }

  // Invariant at each loop top: cur[u] holds the previous level's frontier
  // word of u (zero elsewhere) and `frontier` lists exactly the u with
  // cur[u] != 0.
  Vertex level = 0;
  bool active = true;
  while (active) {
    ++level;
    active = false;
    if (frontier.size() * 8 < n) {
      // Push step: accumulate frontier words into next[] behind first-touch
      // stamps (no per-level zeroing), then settle only the touched list.
      touched.clear();
      for (const Vertex u : frontier) {
        const std::uint64_t word = cur[u];
        for (const Vertex t : g.neighbors(u)) {
          if (t == masked_vertex) continue;
          if (mask.active() && mask.hides(u, t)) [[unlikely]]
            continue;
          if (stamp[t] != level) {
            stamp[t] = level;
            next[t] = word;
            touched.push_back(t);
          } else {
            next[t] |= word;
          }
        }
      }
      spare.clear();
      for (const Vertex u : frontier) cur[u] = 0;
      for (const Vertex t : touched) {
        const std::uint64_t newly = next[t] & ~visited[t];
        if (newly == 0) continue;
        if (level > max_finite) return false;  // saturated settle
        active = true;
        visited[t] |= newly;
        cur[t] = newly;
        spare.push_back(t);
        std::uint64_t bits = newly;
        while (bits != 0) {
          const int b = std::countr_zero(bits);
          bits &= bits - 1;
          rows[static_cast<std::size_t>(b) * stride + t] = static_cast<Dist>(level);
        }
      }
      frontier.swap(spare);
      continue;
    }
    frontier.clear();
    const simd::WordKernels& wk = simd::words();
    for (Vertex u = 0; u < n; ++u) {
      // Saturated vertices (all sources arrived) can gain nothing; skip the
      // gather — this makes late, mostly-settled levels nearly free.
      if (visited[u] == batch_mask) {
        next[u] = 0;
        continue;
      }
      std::uint64_t word = 0;
      if (mask.active() && (u == mask.u || u == mask.v)) [[unlikely]] {
        const Vertex other = u == mask.u ? mask.v : mask.u;
        for (const Vertex t : g.neighbors(u)) {
          if (t != other) word |= cur[t];
        }
      } else {
        const auto nbrs = g.neighbors(u);
        word = wk.or_gather(cur.data(), nbrs.data(), nbrs.size());
      }
      const std::uint64_t newly = word & ~visited[u];
      next[u] = newly;
      if (newly == 0) continue;
      if (level > max_finite) return false;  // saturated: this settle is unrepresentable
      active = true;
      visited[u] |= newly;
      frontier.push_back(u);
      std::uint64_t bits = newly;
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        rows[static_cast<std::size_t>(b) * stride + u] = static_cast<Dist>(level);
      }
    }
    std::swap(cur, next);
  }

  // Back-fill unreached entries (no-op on connected graphs).
  for (Vertex u = 0; u < n; ++u) {
    if (u == masked_vertex) continue;
    std::uint64_t missing = batch_mask & ~visited[u];
    while (missing != 0) {
      const int b = std::countr_zero(missing);
      missing &= missing - 1;
      rows[static_cast<std::size_t>(b) * stride + u] = inf_value;
    }
  }
  return true;
}

/// Dispatch: word-parallelism pays once the batch is wide and frontiers are
/// fat. On near-forests (m close to n) distances spread out, vertices
/// re-enter the frontier once per distinct source distance, and per-source
/// queue BFS wins; likewise for tiny batches. Cutoffs measured on random
/// G(n, m) — see DESIGN.md.
template <typename Dist>
[[nodiscard]] bool batch_dispatch(const CsrGraph& g, std::span<const Vertex> sources,
                                  MaskedEdge mask, Dist* rows, std::size_t stride,
                                  BatchBfsWorkspace& ws, Vertex masked_vertex, Dist inf_value,
                                  Dist max_finite) {
  const std::size_t n = g.num_vertices();
  const bool sparse = g.num_edges() < n + n / 4;
  if (sources.size() < 8 || sparse) {
    BfsResult scratch_result;
    for (std::size_t i = 0; i < sources.size(); ++i) {
      if (!queue_bfs(g, sources[i], mask, rows + i * stride, BatchBfsAccess::queue(ws),
                     masked_vertex, inf_value, max_finite, scratch_result)) {
        return false;
      }
    }
    return true;
  }
  return bitparallel_batch(g, sources, mask, rows, stride, ws, masked_vertex, inf_value,
                           max_finite);
}

template <typename Dist>
[[nodiscard]] bool apsp_impl(const CsrGraph& g, MaskedEdge mask, Dist* rows,
                             BatchBfsWorkspace& ws, Vertex masked_vertex, Dist inf_value,
                             Dist max_finite) {
  const Vertex n = g.num_vertices();
  std::vector<Vertex> sources;
  sources.reserve(64);
  for (Vertex base = 0; base < n; base += 64) {
    const Vertex count = std::min<Vertex>(64, n - base);
    sources.resize(count);
    for (Vertex i = 0; i < count; ++i) sources[i] = base + i;
    if (!batch_dispatch<Dist>(g, sources, mask, rows + static_cast<std::size_t>(base) * n, n, ws,
                              masked_vertex, inf_value, max_finite)) {
      return false;
    }
  }
  return true;
}

template <typename Dist>
[[nodiscard]] bool apsp_rows_impl(const CsrGraph& g, std::span<const Vertex> sources,
                                  MaskedEdge mask, Dist* matrix, std::size_t stride,
                                  BatchBfsWorkspace& ws, Vertex masked_vertex, Dist inf_value,
                                  Dist max_finite) {
  const Vertex n = g.num_vertices();
  auto& staging = BatchBfsAccess::staging<Dist>(ws);
  staging.resize(std::size_t{64} * n);
  for (std::size_t base = 0; base < sources.size(); base += 64) {
    const std::size_t count = std::min<std::size_t>(64, sources.size() - base);
    const std::span<const Vertex> group = sources.subspan(base, count);
    if (!batch_dispatch(g, group, mask, staging.data(), n, ws, masked_vertex, inf_value,
                        max_finite)) {
      return false;
    }
    for (std::size_t i = 0; i < count; ++i) {
      std::memcpy(matrix + static_cast<std::size_t>(group[i]) * stride, staging.data() + i * n,
                  static_cast<std::size_t>(n) * sizeof(Dist));
    }
  }
  return true;
}

/// Repairs row x of the G − v matrix in place. `base` is row x of the
/// unmasked matrix (d(x, ·) in G), `row` its copy with v already blanked,
/// and `dv` = d(x, v), finite. A vertex u is *dominated* when every shortest
/// x–u path runs through v, i.e. when each of its BFS parents (neighbors one
/// level closer to x) is v or dominated; exactly the dominated entries
/// change. Level-order induction gives the rows that need any work: the
/// shallowest dominated vertex has only v as parent, so a row is affected
/// iff some child of v has v as its unique parent — the first loop's test.
/// Stamps are per-row epochs (3·epoch = examined, +1 dominated, +2
/// settled), so nothing is cleared between rows. Adds the number of
/// dominated vertices to `*repaired` when given.
template <typename Dist>
[[nodiscard]] bool repair_row(const CsrGraph& g, const Dist* base, Vertex v, Vertex dv, Dist* row,
                              BatchBfsWorkspace& ws, std::uint32_t& epoch, Dist inf_value,
                              Dist max_finite, std::uint64_t* repaired) {
  auto& stamp = BatchBfsAccess::stamp(ws);
  auto& dominated = BatchBfsAccess::queue(ws);
  dominated.clear();
  std::uint32_t examined = 0;
  for (const Vertex c : g.neighbors(v)) {
    if (Vertex{base[c]} != dv + 1) continue;  // not a BFS child of v
    bool other_parent = false;
    for (const Vertex p : g.neighbors(c)) {
      if (p != v && Vertex{base[p]} == dv) {
        other_parent = true;
        break;
      }
    }
    if (other_parent) continue;
    if (dominated.empty()) examined = 3 * ++epoch;
    stamp[c] = examined + 1;
    dominated.push_back(c);
  }
  if (dominated.empty()) return true;  // no distance from x changes
  const std::uint32_t is_dominated = examined + 1;
  const std::uint32_t settled = examined + 2;

  // Level-order descent: the FIFO pops level L before level L + 1, so when
  // a child t of a dominated u is examined, every dominated vertex on t's
  // parent level is already stamped, and when u itself is popped the status
  // of every vertex on its own level is final. Such a t sits at level
  // dv + 2 or deeper, so none of its parents is v. The same neighbor loop
  // seeds u from its undominated neighbors, which sit on u's level (seed
  // level + 1) or the next one (level + 2) — a parent of u is dominated or
  // v. Popped in level order, each seed list is nondecreasing. Entries
  // pack (distance << 32 | vertex).
  auto& near_seeds = BatchBfsAccess::cur(ws);
  auto& far_seeds = BatchBfsAccess::next(ws);
  auto& relax = BatchBfsAccess::visited(ws);
  near_seeds.clear();
  far_seeds.clear();
  relax.clear();
  for (std::size_t head = 0; head < dominated.size(); ++head) {
    const Vertex u = dominated[head];
    const Vertex level = base[u];
    row[u] = inf_value;
    bool near = false;
    bool far = false;
    for (const Vertex t : g.neighbors(u)) {
      const Vertex lt = base[t];
      if (lt == level) {
        near |= stamp[t] != is_dominated;
        continue;
      }
      if (lt != level + 1) continue;  // a parent: dominated or v
      if (stamp[t] < examined) {
        bool all_dominated = true;
        for (const Vertex p : g.neighbors(t)) {
          if (Vertex{base[p]} == level && stamp[p] != is_dominated) {
            all_dominated = false;
            break;
          }
        }
        stamp[t] = all_dominated ? is_dominated : examined;
        if (all_dominated) dominated.push_back(t);
      }
      far |= stamp[t] != is_dominated;
    }
    if (near) {
      near_seeds.push_back((std::uint64_t{level} + 1) << 32 | u);
    } else if (far) {
      far_seeds.push_back((std::uint64_t{level} + 2) << 32 | u);
    }
  }
  if (repaired != nullptr) *repaired += dominated.size();

  // Relax inside the dominated set in nondecreasing distance: merging the
  // two seed lists with the FIFO of unit relaxations (itself
  // nondecreasing) settles each vertex at its exact G − v distance — the
  // bucketed (Dial) order for unit edges. Unsettled vertices keep ∞.
  std::size_t next_near = 0;
  std::size_t next_far = 0;
  std::size_t head = 0;
  constexpr std::uint64_t kDrained = ~std::uint64_t{0};
  for (;;) {
    const std::uint64_t a = next_near < near_seeds.size() ? near_seeds[next_near] : kDrained;
    const std::uint64_t b = next_far < far_seeds.size() ? far_seeds[next_far] : kDrained;
    const std::uint64_t c = head < relax.size() ? relax[head] : kDrained;
    const std::uint64_t entry = std::min({a, b, c});
    if (entry == kDrained) break;
    if (entry == a) {
      ++next_near;
    } else if (entry == b) {
      ++next_far;
    } else {
      ++head;
    }
    const auto u = static_cast<Vertex>(entry);
    const auto d = static_cast<Vertex>(entry >> 32);
    if (stamp[u] != is_dominated) continue;  // settled earlier
    if (d > max_finite) return false;        // saturated: unrepresentable finite distance
    stamp[u] = settled;
    row[u] = static_cast<Dist>(d);
    for (const Vertex t : g.neighbors(u)) {
      if (stamp[t] == is_dominated) relax.push_back((std::uint64_t{d} + 1) << 32 | t);
    }
  }
  return true;
}

}  // namespace

BfsResult csr_bfs(const CsrGraph& g, Vertex src, MaskedEdge mask, std::uint16_t* dist,
                  BatchBfsWorkspace& ws, Vertex masked_vertex) {
  BNCG_REQUIRE(src < g.num_vertices(), "vertex id out of range");
  BNCG_REQUIRE(g.num_vertices() < kInfDist16, "16-bit traversal requires n < 65535");
  BfsResult result;
  // Distances < n < 0xFFFF never saturate the full 16-bit range.
  (void)queue_bfs(g, src, mask, dist, BatchBfsAccess::queue(ws), masked_vertex, kInfDist16,
                  static_cast<std::uint16_t>(kInfDist16 - 1), result);
  return result;
}

void bfs_batch(const CsrGraph& g, std::span<const Vertex> sources, MaskedEdge mask,
               std::uint16_t* rows, std::size_t stride, BatchBfsWorkspace& ws,
               Vertex masked_vertex) {
  BNCG_REQUIRE(sources.size() <= 64, "at most 64 sources per batch");
  BNCG_REQUIRE(g.num_vertices() < kInfDist16, "16-bit traversal requires n < 65535");
  (void)batch_dispatch(g, sources, mask, rows, stride, ws, masked_vertex, kInfDist16,
                       static_cast<std::uint16_t>(kInfDist16 - 1));
}

template <typename Dist>
bool bfs_batch_capped(const CsrGraph& g, std::span<const Vertex> sources, MaskedEdge mask,
                      Dist* rows, std::size_t stride, BatchBfsWorkspace& ws, Vertex masked_vertex,
                      Dist inf_value, Dist max_finite) {
  BNCG_REQUIRE(sources.size() <= 64, "at most 64 sources per batch");
  BNCG_REQUIRE(max_finite < inf_value, "max_finite must stay below inf_value");
  return batch_dispatch(g, sources, mask, rows, stride, ws, masked_vertex, inf_value, max_finite);
}

template bool bfs_batch_capped<std::uint8_t>(const CsrGraph&, std::span<const Vertex>, MaskedEdge,
                                             std::uint8_t*, std::size_t, BatchBfsWorkspace&,
                                             Vertex, std::uint8_t, std::uint8_t);
template bool bfs_batch_capped<std::uint16_t>(const CsrGraph&, std::span<const Vertex>,
                                              MaskedEdge, std::uint16_t*, std::size_t,
                                              BatchBfsWorkspace&, Vertex, std::uint16_t,
                                              std::uint16_t);

void csr_apsp(const CsrGraph& g, MaskedEdge mask, std::uint16_t* rows, BatchBfsWorkspace& ws,
              Vertex masked_vertex) {
  BNCG_REQUIRE(g.num_vertices() < kInfDist16, "16-bit APSP requires n < 65535");
  (void)apsp_impl(g, mask, rows, ws, masked_vertex, kInfDist16,
                  static_cast<std::uint16_t>(kInfDist16 - 1));
}

void csr_apsp_rows(const CsrGraph& g, std::span<const Vertex> sources, MaskedEdge mask,
                   std::uint16_t* matrix, std::size_t stride, BatchBfsWorkspace& ws,
                   Vertex masked_vertex, std::uint16_t inf_value) {
  const Vertex n = g.num_vertices();
  BNCG_REQUIRE(n < kInfDist16, "16-bit traversal requires n < 65535");
  BNCG_REQUIRE(inf_value >= n, "inf_value must dominate every finite distance");
  // Finite distances are ≤ n − 1 < inf_value, so saturation is impossible:
  // the capped kernel is exactly this function with an unreachable cap.
  (void)csr_apsp_rows_capped<std::uint16_t>(g, sources, mask, matrix, stride, ws, masked_vertex,
                                            inf_value, static_cast<std::uint16_t>(inf_value - 1));
}

template <typename Dist>
bool csr_apsp_capped(const CsrGraph& g, MaskedEdge mask, Dist* rows, BatchBfsWorkspace& ws,
                     Vertex masked_vertex, Dist inf_value, Dist max_finite) {
  BNCG_REQUIRE(max_finite < inf_value, "max_finite must stay below inf_value");
  return apsp_impl(g, mask, rows, ws, masked_vertex, inf_value, max_finite);
}

template <typename Dist>
bool csr_apsp_capped_without(const CsrGraph& g, const Dist* full, Vertex v, Dist* rows,
                             BatchBfsWorkspace& ws, Dist inf_value, Dist max_finite,
                             std::uint64_t* repaired) {
  BNCG_REQUIRE(max_finite < inf_value, "max_finite must stay below inf_value");
  const Vertex n = g.num_vertices();
  BNCG_REQUIRE(v < n, "vertex id out of range");
  BatchBfsAccess::stamp(ws).assign(n, 0);
  std::uint32_t epoch = 0;
  if (repaired != nullptr) *repaired = 0;
  const std::size_t row_bytes = static_cast<std::size_t>(n) * sizeof(Dist);
  for (Vertex x = 0; x < n; ++x) {
    Dist* row = rows + static_cast<std::size_t>(x) * n;
    if (x == v) {
      std::fill(row, row + n, inf_value);  // the vertex is absent: all-∞ row
      continue;
    }
    const Dist* base = full + static_cast<std::size_t>(x) * n;
    std::memcpy(row, base, row_bytes);
    row[v] = inf_value;
    if (base[v] == inf_value) continue;  // v is outside x's component
    if (!repair_row(g, base, v, Vertex{base[v]}, row, ws, epoch, inf_value, max_finite,
                    repaired)) {
      return false;
    }
  }
  return true;
}

template <typename Dist>
bool csr_apsp_rows_capped(const CsrGraph& g, std::span<const Vertex> sources, MaskedEdge mask,
                          Dist* matrix, std::size_t stride, BatchBfsWorkspace& ws,
                          Vertex masked_vertex, Dist inf_value, Dist max_finite) {
  BNCG_REQUIRE(max_finite < inf_value, "max_finite must stay below inf_value");
  return apsp_rows_impl(g, sources, mask, matrix, stride, ws, masked_vertex, inf_value,
                        max_finite);
}

template bool csr_apsp_capped_without<std::uint8_t>(const CsrGraph&, const std::uint8_t*, Vertex,
                                                    std::uint8_t*, BatchBfsWorkspace&,
                                                    std::uint8_t, std::uint8_t, std::uint64_t*);
template bool csr_apsp_capped_without<std::uint16_t>(const CsrGraph&, const std::uint16_t*,
                                                     Vertex, std::uint16_t*, BatchBfsWorkspace&,
                                                     std::uint16_t, std::uint16_t,
                                                     std::uint64_t*);

template bool csr_apsp_capped<std::uint8_t>(const CsrGraph&, MaskedEdge, std::uint8_t*,
                                            BatchBfsWorkspace&, Vertex, std::uint8_t,
                                            std::uint8_t);
template bool csr_apsp_capped<std::uint16_t>(const CsrGraph&, MaskedEdge, std::uint16_t*,
                                             BatchBfsWorkspace&, Vertex, std::uint16_t,
                                             std::uint16_t);
template bool csr_apsp_rows_capped<std::uint8_t>(const CsrGraph&, std::span<const Vertex>,
                                                 MaskedEdge, std::uint8_t*, std::size_t,
                                                 BatchBfsWorkspace&, Vertex, std::uint8_t,
                                                 std::uint8_t);
template bool csr_apsp_rows_capped<std::uint16_t>(const CsrGraph&, std::span<const Vertex>,
                                                  MaskedEdge, std::uint16_t*, std::size_t,
                                                  BatchBfsWorkspace&, Vertex, std::uint16_t,
                                                  std::uint16_t);

bool csr_apsp_wide(const CsrGraph& g, Vertex* rows) {
  const Vertex n = g.num_vertices();
  if (n == 0) return true;
  const std::size_t stride = n;
  const Vertex num_batches = (n + 63) / 64;
  constexpr Vertex kMaxFiniteWide = kInfDist - 1;  // distances < n: never saturates

  // One 64-source batch per pool task, one workspace per lane (batches write
  // disjoint row blocks, so lanes never touch the same output bytes).
  ThreadPool& pool = ThreadPool::global();
  std::vector<BatchBfsWorkspace> ws(pool.size());
  pool.parallel_for(num_batches, /*grain=*/1, [&](std::uint64_t b, unsigned tid) {
    const Vertex base = static_cast<Vertex>(b) * 64;
    const Vertex count = std::min<Vertex>(64, n - base);
    std::vector<Vertex> sources(count);
    for (Vertex i = 0; i < count; ++i) sources[i] = base + i;
    (void)batch_dispatch<Vertex>(g, sources, MaskedEdge{},
                                 rows + static_cast<std::size_t>(base) * stride, stride, ws[tid],
                                 kNoVertex, kInfDist, kMaxFiniteWide);
  });

  const std::size_t total = static_cast<std::size_t>(n) * n;
  for (std::size_t i = 0; i < total; ++i) {
    if (rows[i] == kInfDist) return false;
  }
  return true;
}

}  // namespace bncg
