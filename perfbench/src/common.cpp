#include "common.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/swap.hpp"
#include "util/rng.hpp"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag, std::uint64_t index) {
  std::uint64_t state = seed ^ (tag * 0x9e3779b97f4a7c15ULL);
  (void)bncg::splitmix64(state);
  state ^= index;
  return bncg::splitmix64(state);
}

void Trace::begin_request(std::uint64_t request) {
  const std::lock_guard<std::mutex> lock(mutex_);
  request_ = request;
}

std::int64_t Trace::open(const std::string& name, std::int64_t parent, unsigned lane) {
  const Clock::time_point now = Clock::now();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, now, now, parent, request_, lane});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

double Trace::close(std::int64_t id) {
  const Clock::time_point now = Clock::now();
  const std::lock_guard<std::mutex> lock(mutex_);
  Span& span = spans_.at(static_cast<std::size_t>(id));
  span.end = now;
  return seconds_between(span.start, span.end);
}

void Trace::write_json(const std::string& path, Clock::time_point epoch) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                  "\"parent\": %lld, \"request\": %llu, \"lane\": %u}",
                  i, s.name.c_str(), seconds_between(epoch, s.start), seconds_between(epoch, s.end),
                  static_cast<long long>(s.parent), static_cast<unsigned long long>(s.request),
                  s.lane);
    out << "  " << line << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

double Layers::value(const std::string& name) const {
  const auto it = current_.find(name);
  return it == current_.end() ? 0.0 : it->second;
}

void Layers::end_request() {
  for (const auto& [name, value] : current_) samples_[name].push_back(value);
  current_.clear();
}

double Layers::median(const std::string& name) const {
  const auto it = samples_.find(name);
  return it == samples_.end() ? 0.0 : perfbench::median(it->second);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double tail_percentile(std::size_t samples) {
  if (samples < 20) return 50.0;
  return std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(samples)));
}

double relative_iqr(std::vector<double> values) {
  if (values.size() < 4) return 0.0;
  const double mid = median(values);
  return mid > 0.0 ? (percentile(values, 75.0) - percentile(values, 25.0)) / mid : 0.0;
}

struct CpuRotor::State {
  pthread_t target = pthread_self();
  cpu_set_t original{};
  std::vector<int> cpus;
  std::mutex mutex;
  std::condition_variable wake;
  bool stop = false;
  std::thread rotor;
};

CpuRotor::CpuRotor(std::chrono::milliseconds period) : state_(std::make_unique<State>()) {
  State& s = *state_;
  if (pthread_getaffinity_np(s.target, sizeof s.original, &s.original) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &s.original)) s.cpus.push_back(c);
  }
  if (s.cpus.size() < 2) return;
  s.rotor = std::thread([&s, period] {
    std::unique_lock<std::mutex> lock(s.mutex);
    for (std::size_t next = 0; !s.stop; next = (next + 1) % s.cpus.size()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(s.cpus[next], &one);
      (void)pthread_setaffinity_np(s.target, sizeof one, &one);
      s.wake.wait_for(lock, period, [&s] { return s.stop; });
    }
  });
}

CpuRotor::~CpuRotor() {
  State& s = *state_;
  if (!s.rotor.joinable()) return;
  {
    const std::lock_guard<std::mutex> lock(s.mutex);
    s.stop = true;
  }
  s.wake.notify_one();
  s.rotor.join();
  (void)pthread_setaffinity_np(s.target, sizeof s.original, &s.original);
}

double peak_rss_mb() {
  // VmHWM follows reset_peak_rss; ru_maxrss is the fallback. Both in KiB.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  return static_cast<bool>(clear << "5" << std::flush);
}

std::string check_witness(const bncg::Graph& g, const bncg::Deviation& d, bncg::UsageCost model) {
  using bncg::Deviation;
  if (!bncg::is_legal_swap(g, d.swap)) return "witness is not a legal move";
  bncg::BfsWorkspace ws;
  const Vertex v = d.swap.v;
  const std::uint64_t before = bncg::vertex_cost(g, v, model, ws);
  if (before != d.cost_before) return "witness cost_before disagrees with BFS";
  bncg::Graph moved = g;
  if (d.kind == Deviation::Kind::NonCriticalDelete) {
    moved.remove_edge(v, d.swap.remove_w);
  } else {
    bncg::apply_swap(moved, d.swap);
  }
  const std::uint64_t after = bncg::vertex_cost(moved, v, model, ws);
  if (after != d.cost_after) return "witness cost_after disagrees with BFS";
  const bool improves = d.kind == Deviation::Kind::NonCriticalDelete ? after <= before : after < before;
  return improves ? "" : "witness does not improve the agent's cost";
}

std::uint64_t full_scan_moves(const bncg::Graph& g, bool deletions, Vertex lo, Vertex hi) {
  const std::uint64_t n = g.num_vertices();
  std::uint64_t moves = 0;
  for (Vertex v = lo; v < hi; ++v) {
    const std::uint64_t deg = g.degree(v);
    moves += deg * (n - 1 - deg) + (deletions ? deg : 0);
  }
  return moves;
}

std::string certificate_digest(const bncg::ShardedCertificate& c) {
  std::ostringstream out;
  out << (c.certificate.is_equilibrium ? "EQUILIBRIUM" : "VIOLATED");
  if (c.certificate.witness) {
    const bncg::Deviation& d = *c.certificate.witness;
    out << " witness=" << d.swap.v << ':' << d.swap.remove_w << "->" << d.swap.add_w
        << " cost=" << d.cost_before << "->" << d.cost_after
        << (d.kind == bncg::Deviation::Kind::NonCriticalDelete ? " delete" : " swap");
  }
  out << " moves=" << c.certificate.moves_checked << " agents=" << c.agents_scanned
      << " shards=" << c.shards_used;
  return out.str();
}

}  // namespace perfbench
