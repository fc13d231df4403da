#include "graph/distance_uniformity.hpp"

#include <algorithm>

namespace bncg {

namespace {

/// Counts vertices w with d(v, w) == r (plus r+1 when `almost`).
[[nodiscard]] Vertex band_count(const DistanceMatrix& dm, Vertex v, Vertex r, bool almost) {
  Vertex count = 0;
  for (const Vertex d : dm.row(v)) {
    if (d == r || (almost && d == r + 1)) ++count;
  }
  return count;
}

[[nodiscard]] double epsilon_impl(const DistanceMatrix& dm, Vertex r, bool almost) {
  const Vertex n = dm.size();
  if (n == 0) return 0.0;
  Vertex min_band = n;
  for (Vertex v = 0; v < n; ++v) {
    min_band = std::min(min_band, band_count(dm, v, r, almost));
  }
  return 1.0 - static_cast<double>(min_band) / static_cast<double>(n);
}

[[nodiscard]] UniformityResult best_impl(const DistanceMatrix& dm, bool almost) {
  UniformityResult best;
  const Vertex max_d = dm.max_finite_distance();
  for (Vertex r = 0; r <= max_d; ++r) {
    const double eps = epsilon_impl(dm, r, almost);
    if (eps < best.epsilon) {
      best.epsilon = eps;
      best.radius = r;
    }
  }
  return best;
}

}  // namespace

double epsilon_at_radius(const DistanceMatrix& dm, Vertex r) {
  return epsilon_impl(dm, r, /*almost=*/false);
}

double epsilon_at_radius_almost(const DistanceMatrix& dm, Vertex r) {
  return epsilon_impl(dm, r, /*almost=*/true);
}

UniformityResult best_uniformity(const DistanceMatrix& dm) {
  return best_impl(dm, /*almost=*/false);
}

UniformityResult best_almost_uniformity(const DistanceMatrix& dm) {
  return best_impl(dm, /*almost=*/true);
}

std::vector<Vertex> sphere_sizes(const DistanceMatrix& dm, Vertex v) {
  BNCG_REQUIRE(v < dm.size(), "vertex id out of range");
  const Vertex max_d = dm.max_finite_distance();
  std::vector<Vertex> sizes(static_cast<std::size_t>(max_d) + 1, 0);
  for (const Vertex d : dm.row(v)) {
    if (d != kInfDist) ++sizes[d];
  }
  return sizes;
}

UniformityResult best_uniformity(const Graph& g) { return best_uniformity(DistanceMatrix(g)); }

UniformityResult best_almost_uniformity(const Graph& g) {
  return best_almost_uniformity(DistanceMatrix(g));
}

PairUniformity best_pair_uniformity(const DistanceMatrix& dm, bool almost) {
  PairUniformity best;
  const Vertex n = dm.size();
  if (n < 2) return best;
  const Vertex max_d = dm.max_finite_distance();
  std::vector<std::uint64_t> count(static_cast<std::size_t>(max_d) + 2, 0);
  for (Vertex u = 0; u < n; ++u) {
    for (const Vertex d : dm.row(u)) {
      if (d != kInfDist && d > 0) ++count[d];
    }
  }
  const double total = static_cast<double>(n) * (n - 1);
  for (Vertex r = 1; r <= max_d; ++r) {
    const std::uint64_t band = count[r] + (almost ? count[r + 1] : 0);
    const double fraction = static_cast<double>(band) / total;
    if (fraction > best.fraction) {
      best.fraction = fraction;
      best.radius = r;
    }
  }
  return best;
}

}  // namespace bncg
