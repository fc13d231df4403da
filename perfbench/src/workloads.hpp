// The benchmark's four named workloads. Each one drives public entry points
// of the library as a user calls them (`request`), and rebuilds the same
// request from per-layer public calls under a span trace (`traced`), whose
// result must be byte-identical to the untraced one.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Result of one request, with the output check already applied.
struct Outcome {
  double wall_s = 0.0;      ///< wall time of the public calls alone (checks excluded)
  std::uint64_t agents = 0;  ///< agents certified, or agent scans for dynamics
  std::uint64_t moves = 0;   ///< candidate moves evaluated, or executed moves for dynamics
  std::string digest;        ///< canonical text of the user-visible result
  std::string error;         ///< non-empty when the output check failed
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds every input of the run from `seed`; timed as set-up.
  virtual void setup(std::uint64_t seed) = 0;
  /// Request `i` as a user issues it, timed, then checked.
  [[nodiscard]] virtual Outcome request(std::uint64_t i) = 0;
  /// Request `i` rebuilt from per-layer public calls. Runs right after
  /// request(i), whose service telemetry it may report.
  [[nodiscard]] virtual Outcome traced(std::uint64_t i, Trace& trace, Layers& layers) = 0;
  /// Instance sizes, for the provenance record.
  [[nodiscard]] virtual std::string shape() const = 0;
  /// True when a request runs almost entirely on the calling thread; main()
  /// then rotates that thread over the CPUs (see CpuRotor).
  [[nodiscard]] virtual bool serial() const { return false; }

 protected:
  /// Every request with the same `key` (pool instance + run configuration)
  /// must produce the same digest; returns an error message otherwise.
  [[nodiscard]] std::string expect_repeatable(const std::string& key, const std::string& digest);

 private:
  std::map<std::string, std::string> first_digest_;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// `work_dir` holds the sockets and journals of the served workload.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name, bool smoke,
                                                      const std::string& work_dir);

}  // namespace perfbench
