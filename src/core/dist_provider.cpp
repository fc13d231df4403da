#include "core/dist_provider.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace bncg {

std::uint64_t parse_mem_bytes(const std::string& text) {
  if (text.empty()) throw std::invalid_argument("memory budget: empty value");
  std::size_t i = 0;
  std::uint64_t value = 0;
  while (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i])) != 0) {
    const std::uint64_t digit = static_cast<std::uint64_t>(text[i] - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      throw std::invalid_argument("memory budget overflows 64 bits: " + text);
    }
    value = value * 10 + digit;
    ++i;
  }
  if (i == 0) throw std::invalid_argument("memory budget must start with digits: " + text);
  std::uint64_t scale = 1;
  if (i < text.size()) {
    switch (std::toupper(static_cast<unsigned char>(text[i]))) {
      case 'K': scale = std::uint64_t{1} << 10; break;
      case 'M': scale = std::uint64_t{1} << 20; break;
      case 'G': scale = std::uint64_t{1} << 30; break;
      default: throw std::invalid_argument("memory budget suffix must be K/M/G: " + text);
    }
    ++i;
    if (i != text.size()) throw std::invalid_argument("trailing junk in memory budget: " + text);
    if (value > std::numeric_limits<std::uint64_t>::max() / scale) {
      throw std::invalid_argument("memory budget overflows 64 bits: " + text);
    }
  }
  return value * scale;
}

std::uint64_t env_mem_budget() {
  static const std::uint64_t parsed = [] {
    const char* raw = std::getenv("BNCG_MEM_BUDGET");
    if (raw == nullptr || raw[0] == '\0') return std::uint64_t{0};
    return parse_mem_bytes(raw);
  }();
  return parsed;
}

std::uint64_t resolved_mem_budget(const ResourceConfig& config) {
  return config.mem_budget != 0 ? config.mem_budget : env_mem_budget();
}

WidthAndBudgetPolicy::WidthAndBudgetPolicy(const ResourceConfig& config, unsigned lanes)
    : width_(config.width), total_budget_(resolved_mem_budget(config)) {
  if (lanes == 0) lanes = ThreadPool::global().size();
  if (lanes == 0) lanes = 1;
  lanes_ = lanes;
  // Never let integer division alias a tiny share with "unlimited" (0); a
  // 1-byte share fails loudly in RowCache::configure instead.
  lane_budget_ = total_budget_ == 0 ? 0 : std::max<std::uint64_t>(1, total_budget_ / lanes);
}

bool WidthAndBudgetPolicy::probe_prefers_u8(const CsrGraph& csr, BatchBfsWorkspace& ws) const {
  if (width_ == WidthPolicy::ForceU8) return true;
  if (width_ == WidthPolicy::ForceU16) return false;
  const Vertex n = csr.num_vertices();
  if (n == 0) return true;
  // One u16 traversal from vertex 0; works at any n because the capped fill
  // reports saturation instead of wrapping. A saturating probe means even
  // the u16 scans cannot encode this instance — let the scan itself fail
  // with its own diagnostic; here it simply rules out u8.
  std::vector<std::uint16_t> row(n);
  const Vertex src[1] = {0};
  if (!bfs_batch_capped<std::uint16_t>(csr, std::span<const Vertex>(src, 1), MaskedEdge{},
                                       row.data(), n, ws, kNoVertex, kInfDist16,
                                       std::uint16_t{kInfDist16 - 1})) {
    return false;
  }
  std::uint32_t ecc = 0;
  bool spans = true;
  for (Vertex x = 0; x < n; ++x) {
    if (row[x] == kInfDist16) {
      spans = false;
      break;
    }
    ecc = std::max<std::uint32_t>(ecc, row[x]);
  }
  // Masked sweeps can exceed the 2·ecc bound — the per-agent u16 fallback
  // absorbs those exactly, same contract as the old in-engine probe.
  return spans && 2 * ecc <= kMaxFiniteFor<std::uint8_t>;
}

bool WidthAndBudgetPolicy::fits(Vertex n, DistWidth w, std::uint64_t rows) const noexcept {
  if (n >= kInfDist16) return false;  // dense scans use 16-bit-id traversals
  if (lane_budget_ == 0) return true;
  const std::uint64_t bytes =
      rows * n * (w == DistWidth::U8 ? sizeof(std::uint8_t) : sizeof(std::uint16_t));
  return bytes <= lane_budget_;
}

bool WidthAndBudgetPolicy::shared_slab_fits(Vertex n, DistWidth w) const noexcept {
  if (n >= kInfDist16) return false;
  if (total_budget_ == 0) return true;
  const std::uint64_t slab = std::uint64_t{n} * n * (w == DistWidth::U8 ? 1 : 2);
  return (std::uint64_t{lanes_} + 1) * slab <= total_budget_;
}

template <typename Dist>
template <typename Fill>
const Dist* SharedApsp<Dist>::build_once(Vertex n, Fill&& fill) {
  if (state_ == kUnbuilt) {
    matrix_.resize(static_cast<std::size_t>(n) * n);
    state_ = fill(matrix_.data()) ? kReady : kSaturated;
  }
  return state_ == kReady ? matrix_.data() : nullptr;
}

template <typename Dist>
const Dist* SharedApsp<Dist>::get(const CsrGraph& csr, Dist inf_value, Dist max_finite,
                                  BatchBfsWorkspace& ws) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return build_once(csr.num_vertices(), [&](Dist* rows) {
    return csr_apsp_capped<Dist>(csr, MaskedEdge{}, rows, ws, kNoVertex, inf_value, max_finite);
  });
}

template <typename Dist>
void SharedApsp<Dist>::warm(const CsrGraph& csr, Dist inf_value, Dist max_finite) {
  const std::lock_guard<std::mutex> lock(mutex_);
  (void)build_once(csr.num_vertices(), [&](Dist* rows) {
    return csr_apsp_capped_pooled<Dist>(csr, rows, inf_value, max_finite);
  });
}

template <typename Dist>
bool DistanceProvider<Dist>::begin(const CsrGraph& csr, Vertex masked_vertex, Dist inf_value,
                                   Dist max_finite, RowStorage storage,
                                   std::uint64_t budget_bytes, AlignedVec<Dist>& dense_slab,
                                   BatchBfsWorkspace& ws, SharedApsp<Dist>* shared) {
  storage_ = storage;
  csr_ = &csr;
  n_ = csr.num_vertices();
  slab_ = &dense_slab;
  shared_ = shared;
  masked_vertex_ = masked_vertex;
  inf_value_ = inf_value;
  max_finite_ = max_finite;
  dense_ = nullptr;
  base_ = nullptr;
  affected_.clear();
  if (storage == RowStorage::Dense) return go_dense(ws);
  // Budgeted with an unlimited budget (possible at n ≥ 65535, where the
  // dense path is unavailable regardless): blocks grow on demand, LRU never
  // needs to evict. Adaptive: the slab it may promote into comes out of
  // the budget first (the policy checked that the pre-promotion rows fit
  // the rest).
  const std::uint64_t slab_bytes =
      storage == RowStorage::Adaptive ? std::uint64_t{n_} * n_ * sizeof(Dist) : 0;
  BNCG_REQUIRE(budget_bytes == 0 || budget_bytes > slab_bytes,
               "adaptive storage needs a budget above its dense slab");
  const std::uint64_t effective = budget_bytes != 0 ? budget_bytes - slab_bytes
                                                    : std::numeric_limits<std::uint64_t>::max();
  if (!cache_configured_ || cache_budget_ != effective || cache_n_ != n_) {
    cache_.configure(n_, effective);
    cache_configured_ = true;
    cache_budget_ = effective;
    cache_n_ = n_;
  }
  cache_.begin_context(csr, masked_vertex, inf_value, max_finite);
  return true;
}

template <typename Dist>
bool DistanceProvider<Dist>::go_dense(BatchBfsWorkspace& ws) {
  storage_ = RowStorage::Dense;
  // The shared matrix is the snapshot's, built at this context's encoding:
  // every caller of one SharedApsp<Dist> passes the engine's inf / cap.
  base_ = shared_ != nullptr ? shared_->get(*csr_, inf_value_, max_finite_, ws) : nullptr;
  if (base_ == nullptr) {
    ++slabs_traversed_;
    const std::size_t cells = static_cast<std::size_t>(n_) * n_;
    if (slab_->size() < cells) slab_->resize(cells);
    dense_ = slab_->data();
    return csr_apsp_capped<Dist>(*csr_, MaskedEdge{}, slab_->data(), ws, masked_vertex_,
                                 inf_value_, max_finite_);
  }
  ++slabs_derived_;
  const Vertex v = masked_vertex_;
  const std::size_t n = n_;
  const auto base_row = [&](Vertex x) { return base_ + static_cast<std::size_t>(x) * n; };

  // The unique-parent test of every row at once: by symmetry d(x, c) is
  // column x of base row c, so each child c ∈ N(v) and its other parents
  // p ∈ N(c) ∖ {v} contribute whole base rows.
  const auto nbrs = csr_->neighbors(v);
  kid_rows_.clear();
  parent_rows_.clear();
  parent_off_.assign(1, 0);
  for (const Vertex c : nbrs) {
    kid_rows_.push_back(base_row(c));
    for (const Vertex p : csr_->neighbors(c)) {
      if (p != v) parent_rows_.push_back(base_row(p));
    }
    parent_off_.push_back(static_cast<std::uint32_t>(parent_rows_.size()));
  }
  affected_.resize(n);
  affected_.resize(simd::kernels<Dist>().affected_rows(
      base_row(v), kid_rows_.data(), parent_rows_.data(), parent_off_.data(),
      static_cast<std::uint32_t>(nbrs.size()), n_, inf_value_, affected_.data()));
  slot_.assign(n, kByReference);
  for (const Vertex x : affected_) slot_[x] = kUnrepaired;
  slots_used_ = 0;
  // Repaired rows stack up in the slab, which reserves room for every row
  // once (so no repair moves an earlier row) but only ever writes, and so
  // only makes resident, the rows the scan repairs.
  slab_->clear();
  slab_->reserve(n * n);

  // The width verdict of the whole matrix. Every component of G − v either
  // holds some z ∈ N(v), where d(x, u) ≤ d(x, z) + d(z, u) ≤ 2·max_z ecc,
  // or is a component of G, whose distances the base proved fit. The
  // neighbor fold reads these rows anyway.
  Dist widest = 0;
  for (const Vertex z : nbrs) {
    const Dist* row_z = row(z, ws);
    if (row_z == nullptr) return false;
    Dist ecc = 0;
    simd::kernels<Dist>().finite_max2(row_z, row_z, n_, inf_value_, &ecc, &ecc);
    widest = std::max(widest, ecc);
  }
  if (2 * std::uint32_t{widest} <= max_finite_) return true;
  for (const Vertex x : affected_) {
    if (x != v && row(x, ws) == nullptr) return false;  // row v is all ∞ in G − v
  }
  return true;
}

template <typename Dist>
const Dist* DistanceProvider<Dist>::repair(Vertex x, BatchBfsWorkspace& ws) {
  const std::size_t at = static_cast<std::size_t>(slots_used_) * n_;
  slab_->resize(at + n_);  // within the capacity begin() reserved
  Dist* out = slab_->data() + at;
  const auto nbrs = csr_->neighbors(x);
  if (nbrs.size() == 1 && nbrs[0] == masked_vertex_) {
    // A leaf of v is alone in G − v: its row is ∞ but at x itself (and at
    // column v, which keeps d(x, v)), with no walk over the rest.
    std::fill(out, out + n_, inf_value_);
    out[x] = 0;
    out[masked_vertex_] = 1;
  } else if (!csr_row_without<Dist>(*csr_, base_ + static_cast<std::size_t>(x) * n_,
                                    masked_vertex_, out, ws, inf_value_, max_finite_)) {
    return nullptr;
  }
  ++rows_repaired_;
  slot_[x] = slots_used_++;
  return out;
}

template <typename Dist>
bool DistanceProvider<Dist>::promote_before(std::size_t missing, BatchBfsWorkspace& ws) {
  const std::size_t filled = cache_.context_filled().size();
  if (filled + missing <= WidthAndBudgetPolicy::rows_before_promotion(n_)) return true;
  ++promotions_;
  return go_dense(ws);
}

template <typename Dist>
const Dist* DistanceProvider<Dist>::row(Vertex source, BatchBfsWorkspace& ws) {
  if (storage_ == RowStorage::Adaptive && !cache_.resident(source) && !promote_before(1, ws)) {
    return nullptr;
  }
  if (storage_ != RowStorage::Dense) return cache_.row(source, ws);
  if (base_ == nullptr) {
    BNCG_REQUIRE(dense_ != nullptr, "distance provider used before begin()");
    return dense_ + static_cast<std::size_t>(source) * n_;
  }
  const std::uint32_t slot = slot_[source];
  if (slot == kByReference) return base_ + static_cast<std::size_t>(source) * n_;
  if (slot == kUnrepaired) return repair(source, ws);
  return slab_->data() + static_cast<std::size_t>(slot) * n_;
}

template <typename Dist>
const Dist* DistanceProvider<Dist>::lower_row(Vertex source, BatchBfsWorkspace& ws, bool& exact) {
  exact = storage_ != RowStorage::Dense || base_ == nullptr || slot_[source] != kUnrepaired;
  return exact ? row(source, ws) : base_ + static_cast<std::size_t>(source) * n_;
}

template <typename Dist>
bool DistanceProvider<Dist>::prefetch(std::span<const Vertex> sources, BatchBfsWorkspace& ws) {
  if (storage_ == RowStorage::Adaptive) {
    const auto missing = std::count_if(sources.begin(), sources.end(),
                                       [&](Vertex s) { return !cache_.resident(s); });
    if (!promote_before(static_cast<std::size_t>(missing), ws)) return false;
  }
  if (storage_ == RowStorage::Dense) return true;
  return cache_.prefetch(sources, ws);
}

template <typename Dist>
bool DistanceProvider<Dist>::resident(Vertex source) const {
  if (storage_ == RowStorage::Dense) return source < n_;
  return cache_.resident(source);
}

template <typename Dist>
const RowCache<Dist>& DistanceProvider<Dist>::cache() const {
  BNCG_REQUIRE(storage_ != RowStorage::Dense, "cache() is row-cache-mode introspection");
  return cache_;
}

template <typename Dist>
RowCache<Dist>& DistanceProvider<Dist>::cache() {
  BNCG_REQUIRE(storage_ != RowStorage::Dense, "cache() is row-cache-mode introspection");
  return cache_;
}

template class SharedApsp<std::uint8_t>;
template class SharedApsp<std::uint16_t>;
template class DistanceProvider<std::uint8_t>;
template class DistanceProvider<std::uint16_t>;

}  // namespace bncg
