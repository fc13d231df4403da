// Repository benchmark driver: runs one named workload as a closed loop
// with one client for a fixed wall time and prints one JSON object.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--out DIR] [--setup-only]
//
// Untraced runs (--trace 0) report the end-to-end metrics but setup_s;
// traced runs (--trace 1) issue every request twice — as the user calls
// it, then rebuilt from per-layer public calls under a span trace — check
// that both give the same result, and report the per-layer metrics plus
// the tracing overhead. Spans are kept in memory and written to DIR when
// the run ends. --setup-only times set-up alone and prints its setup_s.
// peak_rss_mb is the median over requests of the peak resident size during
// a request, each request starting from a trimmed heap.
// perfbench/run.py builds this program, takes setup_s over several
// --setup-only processes, and reduces the output to the benchmark's
// result line.
#include <malloc.h>
#include <sys/types.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"request_s_p50", "s"}, {"request_s_tail", "s"}, {"agents_per_s", "1/s"},
    {"moves_per_s", "1/s"}, {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"graph.masked_apsp_s", "s"},
    {"graph.masked_apsp_bytes", "bytes"},
    {"graph.row_fill_s", "s"},
    {"graph.row_cache.hits", "count"},
    {"graph.row_cache.misses", "count"},
    {"graph.row_cache.evictions", "count"},
    {"graph.row_cache.hit_rate", "ratio"},
    {"graph.row_cache.peak_bytes", "bytes"},
    {"graph.csr_build_s", "s"},
    {"core.scan_agent_s_p50", "s"},
    {"core.scan_agent_s_max", "s"},
    {"core.scan_self_s", "s"},
    {"core.moves_checked", "count"},
    {"core.width_fallbacks", "count"},
    {"core.agents_u8", "count"},
    {"core.agents_budgeted", "count"},
    {"core.shard_s_p50", "s"},
    {"core.shard_s_max", "s"},
    {"core.shard_imbalance", "ratio"},
    {"core.fold_s", "s"},
    {"core.engine_build_s", "s"},
    {"core.dynamics.moves", "count"},
    {"core.dynamics.passes", "count"},
    {"core.dynamics.scan_s", "s"},
    {"core.dynamics.rebuild_s", "s"},
    {"core.dynamics.final_certify_s", "s"},
    {"core.dynamics.search_state_tier", "count"},
    {"util.pool.busy_frac", "ratio"},
    {"svc.wire.encode_s", "s"},
    {"svc.wire.decode_s", "s"},
    {"svc.wire.bytes", "bytes"},
    {"svc.frame.encode_s", "s"},
    {"svc.frame.decode_s", "s"},
    {"svc.journal.record_s", "s"},
    {"svc.leases_granted", "count"},
    {"svc.redispatches", "count"},
    {"svc.expired_leases", "count"},
    {"svc.corrupt_results", "count"},
    {"svc.worker_lease_spread", "count"},
    {"trace.request_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.overhead_frac", "ratio"},
};

/// With --setup-only, setup_s is the median over kSetupRounds rounds of the
/// mean set-up time in a round. A round sets up a fresh copy of the
/// workload repeatedly until it has run kSetupRoundSeconds, so that a
/// set-up well under a millisecond is timed over many calls and work moved
/// into set-up still shows.
constexpr int kSetupRounds = 7;
constexpr double kSetupRoundSeconds = 0.02;

/// How long a serial workload's thread stays on one CPU: an equilibrate-gnm
/// request visits each of four CPUs about seven times.
constexpr std::chrono::milliseconds kRotatePeriod{25};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool smoke = false;
  bool setup_only = false;
  std::string out_dir = ".bench_build/perfbench-out";
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]"
            << " [--out DIR] [--setup-only]\nworkloads:";
  for (const std::string& name : workload_names()) std::cerr << ' ' << name;
  std::cerr << '\n';
  std::exit(2);
}

[[nodiscard]] Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    const auto next = [&]() -> std::string {
      if (a + 1 >= argc) usage(arg + " needs a value");
      return argv[++a];
    };
    try {
      if (arg == "--workload") {
        o.workload = next();
      } else if (arg == "--seed") {
        o.seed = std::stoull(next());
        have_seed = true;
      } else if (arg == "--seconds") {
        o.seconds = std::stod(next());
        have_seconds = true;
      } else if (arg == "--trace") {
        const std::string v = next();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
        have_trace = true;
      } else if (arg == "--smoke") {
        o.smoke = true;
      } else if (arg == "--setup-only") {
        o.setup_only = true;
      } else if (arg == "--out") {
        o.out_dir = next();
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (o.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (o.seconds <= 0.0) usage("--seconds must be positive");
  return o;
}

[[nodiscard]] std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

[[nodiscard]] std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void emit_metric(std::ostringstream& out, bool& first, const MetricDef& def, double value) {
  out << (first ? "" : ", ") << json_string(def.name) << ": {\"value\": " << json_number(value)
      << ", \"unit\": " << json_string(def.unit) << "}";
  first = false;
}

/// Requests attempted and failed, with the first few failure messages.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void record(const std::string& error) {
    ++attempted;
    if (error.empty()) return;
    ++failed;
    if (errors.size() < 5) errors.push_back(error);
  }
};

/// Runs one request, turning an exception into a failed check.
template <typename F>
[[nodiscard]] Outcome guarded(F&& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    Outcome o;
    o.error = std::string("exception: ") + e.what();
    return o;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const std::string work_dir =
      opt.out_dir + "/work-" + opt.workload + "-" + std::to_string(static_cast<long>(::getpid()));
  std::unique_ptr<Workload> workload = make_workload(opt.workload, opt.smoke, work_dir);
  if (!workload) usage("unknown workload " + opt.workload);
  const Clock::time_point epoch = Clock::now();

  if (opt.setup_only) {
    std::vector<double> setup_s;
    std::uint64_t setups = 0;
    for (int r = 0; r < kSetupRounds; ++r) {
      const std::unique_ptr<Workload> copy = make_workload(opt.workload, opt.smoke, work_dir);
      const Clock::time_point t0 = Clock::now();
      std::uint64_t calls = 0;
      double elapsed = 0.0;
      do {
        copy->setup(opt.seed);
        ++calls;
        elapsed = seconds_between(t0, Clock::now());
      } while (elapsed < kSetupRoundSeconds);
      setup_s.push_back(elapsed / static_cast<double>(calls));
      setups += calls;
    }
    std::cout << "{\"setup_s\": " << json_number(median(setup_s)) << ", \"setups\": " << setups
              << ", \"setup_s_iqr_over_median\": " << json_number(relative_iqr(setup_s)) << "}"
              << std::endl;
    return 0;
  }
  workload->setup(opt.seed);
  std::optional<CpuRotor> rotor;
  if (workload->serial()) rotor.emplace(kRotatePeriod);

  // One warm-up request fills lazily allocated scratch and the thread pool;
  // it is checked like any other but not timed. Its digest is the run's
  // pinned result for this seed.
  Tally tally;
  const Outcome warmup = guarded([&] { return workload->request(0); });
  tally.record(warmup.error);

  Trace trace;
  Layers layers;
  std::vector<double> wall;
  std::vector<double> traced_wall;
  std::vector<double> request_rss_mb;  // peak RSS during each request
  std::uint64_t agents = 0;
  std::uint64_t moves = 0;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 1; seconds_between(start, Clock::now()) < opt.seconds; ++i) {
    // Every untraced request starts from the same allocator state: freed
    // heap memory goes back to the system (glibc keeps it per thread arena,
    // so which lane freed what decided the resident size), then the peak
    // count restarts at the resident size.
    if (!opt.trace) malloc_trim(0);
    const bool rss_reset = !opt.trace && reset_peak_rss();
    const Outcome plain = guarded([&] { return workload->request(i); });
    if (!opt.trace) {
      tally.record(plain.error);
      if (rss_reset) request_rss_mb.push_back(peak_rss_mb());
      wall.push_back(plain.wall_s);
      agents += plain.agents;
      moves += plain.moves;
      continue;
    }
    trace.begin_request(i);
    const Outcome traced = guarded([&] { return workload->traced(i, trace, layers); });
    std::string error = !plain.error.empty() ? plain.error : traced.error;
    if (error.empty() && traced.digest != plain.digest) {
      error = "traced result '" + traced.digest + "' differs from untraced '" + plain.digest + "'";
    }
    tally.record(error);
    const double hits = layers.value("graph.row_cache.hits");
    const double misses = layers.value("graph.row_cache.misses");
    layers.set("graph.row_cache.hit_rate", hits + misses > 0.0 ? hits / (hits + misses) : 0.0);
    layers.set("trace.request_s", traced.wall_s);
    layers.set("trace.overhead_s", traced.wall_s - plain.wall_s);
    layers.set("trace.overhead_frac",
               plain.wall_s > 0.0 ? (traced.wall_s - plain.wall_s) / plain.wall_s : 0.0);
    layers.end_request();
    wall.push_back(plain.wall_s);
    traced_wall.push_back(traced.wall_s);
  }
  rotor.reset();

  std::ostringstream metrics;
  bool first = true;
  const double tail_p = tail_percentile(wall.size());
  if (!opt.trace) {
    double total_s = 0.0;
    for (const double w : wall) total_s += w;
    const double values[] = {
        median(wall),
        wall.size() < 20 ? median(wall) : percentile(wall, tail_p),
        total_s > 0.0 ? static_cast<double>(agents) / total_s : 0.0,
        total_s > 0.0 ? static_cast<double>(moves) / total_s : 0.0,
        request_rss_mb.empty() ? peak_rss_mb() : median(request_rss_mb),
    };
    for (std::size_t m = 0; m < std::size(kEndToEnd); ++m) emit_metric(metrics, first, kEndToEnd[m], values[m]);
  } else {
    for (const MetricDef& def : kPerLayer) emit_metric(metrics, first, def, layers.median(def.name));
    std::filesystem::create_directories(opt.out_dir);
    trace.write_json(opt.out_dir + "/spans-" + opt.workload + "-seed" + std::to_string(opt.seed) +
                         ".json",
                     epoch);
  }
  std::filesystem::remove_all(work_dir);

  std::ostringstream errors;
  for (std::size_t e = 0; e < tally.errors.size(); ++e) {
    errors << (e == 0 ? "" : ", ") << json_string(tally.errors[e]);
  }
  std::ostringstream out;
  out << "{\"workload\": " << json_string(opt.workload) << ", \"seed\": " << opt.seed
      << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"correct\": "
      << (tally.failed == 0 ? "true" : "false") << ", \"attempted\": " << tally.attempted
      << ", \"failed\": " << tally.failed << ", \"metrics\": {" << metrics.str() << "}"
      << ", \"provenance\": {\"threads\": " << bncg::ThreadPool::global().size()
      << ", \"simd_level\": " << json_string(bncg::simd_level_name(bncg::simd_active_level()))
      << ", \"smoke\": " << (opt.smoke ? "true" : "false")
      << ", \"shape\": " << json_string(workload->shape())
      << ", \"requests\": " << wall.size()
      << ", \"request_s_iqr_over_median\": " << json_number(relative_iqr(wall))
      << ", \"tail_percentile\": " << json_number(tail_p)
      << ", \"traced_request_s_p50\": " << json_number(median(traced_wall))
      << ", \"warmup_digest\": " << json_string(warmup.digest) << ", \"request_s\": [";
  for (std::size_t r = 0; r < wall.size(); ++r) out << (r == 0 ? "" : ", ") << json_number(wall[r]);
  out << "]}"
      << ", \"errors\": [" << errors.str() << "]}";
  std::cout << out.str() << std::endl;
  return 0;
}
