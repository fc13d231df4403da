// Shared pieces of the repository benchmark: timing, in-memory span
// tracing, per-layer samples, statistics, and the output checks every
// workload runs on its results.
//
// Nothing here reaches into the library's internals: spans are recorded
// around calls to public entry points, and every check recomputes what it
// can from the graph itself (plain BFS, closed-form move counts).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/certify_sharded.hpp"
#include "core/equilibrium.hpp"
#include "core/usage_cost.hpp"
#include "graph/graph.hpp"

namespace perfbench {

using bncg::Vertex;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Seed of the `index`-th instance of family `tag` in a run seeded `seed`.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag, std::uint64_t index);

/// One traced interval at a layer boundary. `parent` indexes the enclosing
/// span (-1 for a request root); the spans of one request share `request`.
struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
  unsigned lane = 0;
};

/// In-memory span recorder, written out once when the run ends. Thread-safe:
/// pool lanes record their shard spans concurrently.
class Trace {
 public:
  void begin_request(std::uint64_t request);
  [[nodiscard]] std::int64_t open(const std::string& name, std::int64_t parent, unsigned lane = 0);
  /// Closes span `id` and returns its duration in seconds.
  double close(std::int64_t id);
  /// Writes every span as JSON (times in seconds since `epoch`).
  void write_json(const std::string& path, Clock::time_point epoch) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t request_ = 0;
};

/// Per-layer values of the traced run: each request contributes one sample
/// per name (values added within a request accumulate), and a metric is the
/// median of its samples.
class Layers {
 public:
  void add(const std::string& name, double value) { current_[name] += value; }
  void set(const std::string& name, double value) { current_[name] = value; }
  /// Value of `name` in the current request (0 when not recorded).
  [[nodiscard]] double value(const std::string& name) const;
  void end_request();
  [[nodiscard]] double median(const std::string& name) const;

 private:
  std::map<std::string, double> current_;
  std::map<std::string, std::vector<double>> samples_;
};

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile `p` in [0, 100] of `values` (non-empty).
[[nodiscard]] double percentile(std::vector<double> values, double p);
/// Highest whole percentile with at least ten samples beyond it, floored
/// at the median when fewer than twenty samples exist.
[[nodiscard]] double tail_percentile(std::size_t samples);
/// Interquartile range over the median (the spread the run reports).
[[nodiscard]] double relative_iqr(std::vector<double> values);

/// Moves the thread that creates it to the next CPU of its affinity set
/// every `period`, round robin, until destroyed; then restores the set.
/// A shared host runs each vCPU at its own speed, which changes every few
/// seconds (the same serial request took 0.65, 1.0 or 1.5 s depending on
/// the vCPU and the moment), and the scheduler leaves a lone running thread
/// where it is. Rotating gives every serial request the same mix of vCPUs,
/// as the pool's dynamic chunking does for the parallel workloads.
class CpuRotor {
 public:
  explicit CpuRotor(std::chrono::milliseconds period);
  ~CpuRotor();
  CpuRotor(const CpuRotor&) = delete;
  CpuRotor& operator=(const CpuRotor&) = delete;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mb();
/// Restarts the peak-RSS count at the current resident size (Linux
/// clear_refs); false where the kernel refuses it.
[[nodiscard]] bool reset_peak_rss();

/// Re-verifies a reported deviation with plain BFS: the move is legal, the
/// agent's cost before matches, and applying it yields the reported cost
/// after, strictly lower for a swap and not higher for a deletion. Returns
/// an error message, empty when the witness holds.
[[nodiscard]] std::string check_witness(const bncg::Graph& g, const bncg::Deviation& d,
                                        bncg::UsageCost model);

/// Candidate moves a full scan of agents [lo, hi) evaluates: deg(v) removed
/// edges times the n − 1 − deg(v) non-neighbors, plus deg(v) deletions when
/// the max model's deletion clause is on.
[[nodiscard]] std::uint64_t full_scan_moves(const bncg::Graph& g, bool deletions, Vertex lo,
                                            Vertex hi);

/// Canonical text of a certificate's user-visible content: verdict,
/// witness, move count, agents scanned, shard count.
[[nodiscard]] std::string certificate_digest(const bncg::ShardedCertificate& c);

}  // namespace perfbench
