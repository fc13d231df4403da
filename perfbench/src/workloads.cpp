#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <filesystem>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/certify_wire.hpp"
#include "core/instance.hpp"
#include "core/search_state.hpp"
#include "core/swap_engine.hpp"
#include "gen/paper.hpp"
#include "graph/bfs_batch.hpp"
#include "graph/csr.hpp"
#include "graph/io.hpp"
#include "svc/dispatcher.hpp"
#include "svc/journal.hpp"
#include "svc/net.hpp"
#include "svc/protocol.hpp"
#include "svc/worker.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace bncg;

std::string Workload::expect_repeatable(const std::string& key, const std::string& digest) {
  const auto [it, inserted] = first_digest_.emplace(key, digest);
  if (inserted || it->second == digest) return "";
  return "result of " + key + " changed between requests: '" + digest + "' vs '" + it->second + "'";
}

namespace {

constexpr std::size_t kProbeAgents = 4;

[[nodiscard]] std::vector<Vertex> pick_agents(std::uint64_t seed, Vertex n, std::size_t count) {
  Xoshiro256ss rng(derive_seed(seed, 99, 0));
  std::vector<Vertex> agents;
  while (agents.size() < std::min<std::size_t>(count, n)) {
    const Vertex v = static_cast<Vertex>(rng.below(n));
    if (std::find(agents.begin(), agents.end(), v) == agents.end()) agents.push_back(v);
  }
  return agents;
}

[[nodiscard]] AgentRange canonical_range(Vertex n, std::size_t shard, std::size_t shards) {
  AgentRange range;
  range.lo = static_cast<Vertex>(shard * n / shards);
  range.hi = static_cast<Vertex>((shard + 1) * n / shards);
  range.shard_index = static_cast<std::uint32_t>(shard);
  range.shard_count = static_cast<std::uint32_t>(shards);
  return range;
}

/// Checks a full (not stop_on_violation) certificate against what the
/// graph itself says: every agent scanned, the closed-form move count, and
/// a BFS re-verification of the witness.
[[nodiscard]] std::string check_full_certificate(const Graph& g, const ShardedCertificate& cert,
                                                 UsageCost model, bool deletions) {
  const EquilibriumCertificate& c = cert.certificate;
  if (cert.agents_scanned != g.num_vertices()) return "not every agent was scanned";
  if (c.moves_checked != full_scan_moves(g, deletions, 0, g.num_vertices())) {
    return "moves_checked disagrees with the closed-form candidate count";
  }
  if (c.is_equilibrium == c.witness.has_value()) return "verdict and witness disagree";
  return c.witness ? check_witness(g, *c.witness, model) : "";
}

/// Storage width and plan counts of `scanned` agents on `engine`, as they
/// ran: `fallbacks` agents were redone at u16 (the engine's counter), and
/// `contexts` row-cache contexts were opened (the lane scratches' counters;
/// a budgeted scan opens one per agent, dense scans none).
void record_paths(const SwapEngine& engine, std::uint64_t scanned, std::uint64_t fallbacks,
                  std::uint64_t contexts, Layers& layers) {
  const std::uint64_t u8 = engine.preferred_width() == DistWidth::U8 ? scanned - fallbacks : 0;
  layers.add("core.agents_u8", static_cast<double>(u8));
  layers.add("core.agents_budgeted", static_cast<double>(contexts));
  layers.add("core.width_fallbacks", static_cast<double>(fallbacks));
}

void record_row_cache(const RowCacheStats& before, const RowCacheStats& after, Layers& layers) {
  layers.add("graph.row_cache.hits", static_cast<double>(after.hits - before.hits));
  layers.add("graph.row_cache.misses", static_cast<double>(after.misses - before.misses));
  layers.add("graph.row_cache.evictions", static_cast<double>(after.evictions - before.evictions));
  layers.add("graph.row_cache.peak_bytes", static_cast<double>(after.peak_bytes));
}

/// Shard timing layers of one parallel phase over `lanes` pool lanes.
void record_shards(const std::vector<double>& shard_s, double phase_s, unsigned lanes,
                   Layers& layers) {
  double busy = 0.0;
  double slowest = 0.0;
  for (const double s : shard_s) {
    busy += s;
    slowest = std::max(slowest, s);
  }
  const double mean = busy / static_cast<double>(shard_s.size());
  layers.add("core.shard_s_p50", median(shard_s));
  layers.add("core.shard_s_max", slowest);
  layers.add("core.shard_imbalance", mean > 0.0 ? slowest / mean : 0.0);
  layers.add("util.pool.busy_frac", phase_s > 0.0 ? busy / (lanes * phase_s) : 0.0);
}

[[nodiscard]] std::unique_ptr<SwapEngine> traced_engine(const Graph& g,
                                                        const ResourceConfig& resources,
                                                        Trace& trace, std::int64_t parent,
                                                        Layers& layers) {
  const std::int64_t span = trace.open("core.engine_build", parent);
  auto engine = std::make_unique<SwapEngine>(g, resources);
  layers.add("core.engine_build_s", trace.close(span));
  return engine;
}

/// Instance::certify rebuilt from its layers: engine construction (by the
/// caller, see traced_engine), one certify_agent_range per canonical shard
/// on the pool lanes, then the serial ShardFold — the same calls
/// certify_sharded makes.
[[nodiscard]] ShardedCertificate traced_certify(const SwapEngine& engine, const RunConfig& run,
                                                Trace& trace, std::int64_t parent,
                                                Layers& layers) {
  ThreadPool& pool = ThreadPool::global();
  const unsigned lanes = pool.size();
  const Vertex n = engine.snapshot().num_vertices();
  const std::size_t shards =
      std::min<std::size_t>(n, run.shards != 0 ? run.shards : std::size_t{4} * lanes);
  std::vector<ShardResult> results(shards);
  std::vector<double> shard_s(shards);
  std::vector<SwapEngine::Scratch> scratch(lanes);
  std::atomic<bool> abort{false};
  const std::int64_t phase = trace.open("core.shards", parent);
  pool.parallel_for(shards, 1, [&](std::uint64_t k, unsigned tid) {
    const std::int64_t id = trace.open("core.shard", phase, tid);
    results[k] = certify_agent_range(engine, canonical_range(n, k, shards), run.model,
                                     run.include_deletions, run.stop_on_violation, &scratch[tid],
                                     &abort);
    shard_s[k] = trace.close(id);
  });
  record_shards(shard_s, trace.close(phase), lanes, layers);

  const std::int64_t span = trace.open("core.fold", parent);
  ShardFold fold;
  for (const ShardResult& r : results) fold.add(r);
  ShardedCertificate cert = fold.finish();
  layers.add("core.fold_s", trace.close(span));
  cert.width = engine.preferred_width();
  cert.width_fallbacks = engine.width_fallbacks();

  layers.add("core.moves_checked", static_cast<double>(cert.certificate.moves_checked));
  RowCacheStats total;
  for (const SwapEngine::Scratch& s : scratch) {
    const RowCacheStats lane = s.row_cache_stats();
    total.hits += lane.hits;
    total.misses += lane.misses;
    total.evictions += lane.evictions;
    total.contexts += lane.contexts;
    total.peak_bytes += lane.peak_bytes;
  }
  record_row_cache(RowCacheStats{}, total, layers);
  record_paths(engine, cert.agents_scanned, cert.width_fallbacks, total.contexts, layers);
  return cert;
}

template <typename Dist>
[[nodiscard]] bool masked_apsp(const CsrGraph& csr, Vertex v, std::vector<Dist>& rows,
                               BatchBfsWorkspace& ws) {
  const std::size_t n = csr.num_vertices();
  rows.resize(n * n);
  return csr_apsp_capped<Dist>(csr, MaskedEdge{}, rows.data(), ws, v, kSearchInfFor<Dist>,
                               kMaxFiniteFor<Dist>);
}

/// Per-agent probes on a dense engine: the masked APSP of G − v at the
/// engine's width, then the full agent scan (whose self time is the scan
/// minus that traversal: scan tables, combines, far-set filter).
void probe_agents(const SwapEngine& engine, const std::vector<Vertex>& agents, UsageCost model,
                  bool deletions, Trace& trace, std::int64_t parent, Layers& layers) {
  const CsrGraph& csr = engine.snapshot();
  const std::size_t n = csr.num_vertices();
  BatchBfsWorkspace ws;
  std::vector<std::uint8_t> rows8;
  std::vector<std::uint16_t> rows16;
  SwapEngine::Scratch scratch;
  std::vector<double> apsp_s;
  std::vector<double> scan_s;
  double bytes = 0.0;
  for (const Vertex v : agents) {
    std::int64_t span = trace.open("graph.masked_apsp", parent);
    bool narrow = engine.preferred_width() == DistWidth::U8 && masked_apsp(csr, v, rows8, ws);
    if (!narrow && !masked_apsp(csr, v, rows16, ws)) throw std::runtime_error("u16 APSP saturated");
    apsp_s.push_back(trace.close(span));
    bytes += static_cast<double>(n * n * (narrow ? 1 : 2));

    span = trace.open("core.scan_agent", parent);
    std::uint64_t moves = 0;
    (void)engine.best_deviation(v, model, scratch, deletions, &moves);
    scan_s.push_back(trace.close(span));
  }
  const double self = median(scan_s) - median(apsp_s);
  layers.add("graph.masked_apsp_s", median(apsp_s));
  layers.add("graph.masked_apsp_bytes", bytes / static_cast<double>(agents.size()));
  layers.add("core.scan_agent_s_p50", median(scan_s));
  layers.add("core.scan_agent_s_max", *std::max_element(scan_s.begin(), scan_s.end()));
  layers.add("core.scan_self_s", std::max(0.0, self));
}

void probe_csr(const Graph& g, Trace& trace, std::int64_t parent, Layers& layers) {
  const std::int64_t span = trace.open("graph.csr_build", parent);
  { const CsrGraph csr(g); }
  layers.add("graph.csr_build_s", trace.close(span));
}

/// Row-cache contexts opened so far on every scratch in `lanes`.
[[nodiscard]] std::uint64_t contexts_of(const std::vector<SwapEngine::Scratch>& lanes) {
  std::uint64_t contexts = 0;
  for (const SwapEngine::Scratch& s : lanes) contexts += s.row_cache_stats().contexts;
  return contexts;
}

// ---------------------------------------------------------------- certify-gnm

/// Instance::certify on a pool of seeded G(n, 2n), alternating the sum and
/// max models; dense u8 storage.
class CertifyGnm final : public Workload {
 public:
  explicit CertifyGnm(bool smoke)
      : n_(smoke ? 48 : 512), pool_size_(smoke ? 2 : 16) {}

  void setup(std::uint64_t seed) override {
    pool_.clear();
    for (std::size_t p = 0; p < pool_size_; ++p) {
      pool_.push_back(Instance::gnm(n_, 2 * std::size_t{n_}, derive_seed(seed, 1, p)));
      (void)pool_.back().fingerprint();
    }
    probes_ = pick_agents(seed, n_, kProbeAgents);
  }

  Outcome request(std::uint64_t i) override {
    const RunConfig run = config(i);
    const Clock::time_point t0 = Clock::now();
    const ShardedCertificate cert = instance(i).certify(run);
    return finish(i, cert, seconds_between(t0, Clock::now()));
  }

  Outcome traced(std::uint64_t i, Trace& trace, Layers& layers) override {
    const RunConfig run = config(i);
    const Clock::time_point t0 = Clock::now();
    const std::int64_t root = trace.open("request", -1);
    const auto engine = traced_engine(instance(i).graph(), run.resources, trace, root, layers);
    const ShardedCertificate cert = traced_certify(*engine, run, trace, root, layers);
    probe_agents(*engine, probes_, run.model, false, trace, root, layers);
    probe_csr(instance(i).graph(), trace, root, layers);
    trace.close(root);
    return finish(i, cert, seconds_between(t0, Clock::now()));
  }

  std::string shape() const override {
    return "gnm n=" + std::to_string(n_) + " m=" + std::to_string(2 * n_) + " pool=" +
           std::to_string(pool_size_) + " models=sum,max";
  }

 private:
  [[nodiscard]] std::size_t slot(std::uint64_t i) const { return (i / 2) % pool_size_; }
  [[nodiscard]] const Instance& instance(std::uint64_t i) const { return pool_[slot(i)]; }
  [[nodiscard]] static RunConfig config(std::uint64_t i) {
    RunConfig run;
    run.model = i % 2 == 0 ? UsageCost::Sum : UsageCost::Max;
    return run;
  }

  Outcome finish(std::uint64_t i, const ShardedCertificate& cert, double wall_s) {
    Outcome o;
    o.wall_s = wall_s;
    o.agents = cert.agents_scanned;
    o.moves = cert.certificate.moves_checked;
    o.digest = certificate_digest(cert);
    o.error = check_full_certificate(instance(i).graph(), cert, config(i).model, false);
    if (o.error.empty()) {
      o.error = expect_repeatable(std::to_string(slot(i)) + "/" + std::to_string(i % 2), o.digest);
    }
    return o;
  }

  Vertex n_;
  std::size_t pool_size_;
  std::vector<Instance> pool_;
  std::vector<Vertex> probes_;
};

// ------------------------------------------------------------- certify-budget

/// Budget-forced storage on a large torus: one certify_agent_range per pool
/// lane over a fixed agent slice of the pristine torus, then the perturbed
/// torus refuted with stop_on_violation (one shard, so the witness is
/// deterministic).
class CertifyBudget final : public Workload {
 public:
  explicit CertifyBudget(bool smoke)
      : k_(smoke ? 6 : 128), budget_(smoke ? 4096 : std::uint64_t{256} << 20) {}

  /// The construction fixes both instances and the slice (agents 0, 1, …,
  /// one per lane), so the seed changes nothing here: on the torus every
  /// agent's scan is the same work up to vertex numbering, and a seeded
  /// slice only added numbering effects to the run-to-run spread.
  void setup(std::uint64_t /*seed*/) override {
    const DiagonalTorus torus = rotated_torus(k_);
    pristine_.emplace(torus.graph());
    (void)pristine_->fingerprint();
    // Rewire agent 0's first edge to its antipode: agent 0 then has an
    // improving move, which a one-shard stop_on_violation scan meets first.
    Graph perturbed = torus.graph();
    const Vertex w = perturbed.neighbors(0).front();
    apply_swap(perturbed, EdgeSwap{0, w, torus.id({k_, k_})});
    perturbed_.emplace(std::move(perturbed));
    (void)perturbed_->fingerprint();
    engine_ = std::make_unique<SwapEngine>(pristine_->graph(), resources());
    const unsigned lanes = ThreadPool::global().size();
    slice_.resize(lanes);
    std::iota(slice_.begin(), slice_.end(), Vertex{0});
    scratch_ = std::vector<SwapEngine::Scratch>(lanes);
  }

  Outcome request(std::uint64_t) override {
    const Clock::time_point t0 = Clock::now();
    std::vector<ShardResult> slice(slice_.size());
    ThreadPool::global().parallel_for(slice.size(), 1, [&](std::uint64_t k, unsigned tid) {
      slice[k] = certify_agent_range(*engine_, agent_range(k), UsageCost::Max, true, false,
                                     &scratch_[tid]);
    });
    const ShardedCertificate refute = perturbed_->certify(refute_config());
    return finish(slice, refute, seconds_between(t0, Clock::now()));
  }

  Outcome traced(std::uint64_t, Trace& trace, Layers& layers) override {
    ThreadPool& pool = ThreadPool::global();
    const Clock::time_point t0 = Clock::now();
    const std::int64_t root = trace.open("request", -1);

    std::vector<ShardResult> slice(slice_.size());
    std::vector<double> scan_s(slice_.size());
    std::vector<RowCacheStats> before(scratch_.size());
    for (std::size_t t = 0; t < scratch_.size(); ++t) before[t] = scratch_[t].row_cache_stats();
    const std::uint64_t fallbacks = engine_->width_fallbacks();
    const std::uint64_t contexts = contexts_of(scratch_);
    const std::int64_t phase = trace.open("core.slice", root);
    pool.parallel_for(slice.size(), 1, [&](std::uint64_t k, unsigned tid) {
      const std::int64_t id = trace.open("core.scan_agent", phase, tid);
      slice[k] = certify_agent_range(*engine_, agent_range(k), UsageCost::Max, true, false,
                                     &scratch_[tid]);
      scan_s[k] = trace.close(id);
    });
    trace.close(phase);
    layers.add("core.scan_agent_s_p50", median(scan_s));
    layers.add("core.scan_agent_s_max", *std::max_element(scan_s.begin(), scan_s.end()));
    for (std::size_t t = 0; t < scratch_.size(); ++t) {
      record_row_cache(before[t], scratch_[t].row_cache_stats(), layers);
    }
    record_paths(*engine_, slice.size(), engine_->width_fallbacks() - fallbacks,
                 contexts_of(scratch_) - contexts, layers);
    for (const ShardResult& r : slice) layers.add("core.moves_checked", static_cast<double>(r.moves));

    const auto engine = traced_engine(perturbed_->graph(), resources(), trace, root, layers);
    const ShardedCertificate refute = traced_certify(*engine, refute_config(), trace, root, layers);
    probe_row_fill(trace, root, layers);
    probe_csr(pristine_->graph(), trace, root, layers);
    trace.close(root);
    return finish(slice, refute, seconds_between(t0, Clock::now()));
  }

  std::string shape() const override {
    return "rotated torus k=" + std::to_string(k_) + " n=" + std::to_string(2 * k_ * k_) +
           " mem_budget=" + std::to_string(budget_) + " slice=" + std::to_string(slice_.size()) +
           " agents + perturbed refute";
  }

 private:
  [[nodiscard]] ResourceConfig resources() const {
    ResourceConfig resources;
    resources.mem_budget = budget_;
    return resources;
  }
  [[nodiscard]] RunConfig refute_config() const {
    RunConfig run;
    run.model = UsageCost::Max;
    run.include_deletions = true;
    run.stop_on_violation = true;
    run.shards = 1;
    run.resources = resources();
    return run;
  }
  [[nodiscard]] AgentRange agent_range(std::uint64_t k) const {
    AgentRange range;
    range.lo = slice_[k];
    range.hi = slice_[k] + 1;
    return range;
  }

  /// One 64-source row-cache fill (bfs_batch_capped) of G − v at the
  /// engine's width, v the first slice agent.
  void probe_row_fill(Trace& trace, std::int64_t parent, Layers& layers) const {
    const CsrGraph& csr = engine_->snapshot();
    const Vertex v = slice_.front();
    std::vector<Vertex> sources;
    for (Vertex s = 0; sources.size() < 64 && s < csr.num_vertices(); ++s) {
      if (s != v) sources.push_back(s);
    }
    BatchBfsWorkspace ws;
    const std::int64_t span = trace.open("graph.row_fill", parent);
    bool ok = false;
    if (engine_->preferred_width() == DistWidth::U8) {
      std::vector<std::uint8_t> rows(sources.size() * csr.num_vertices());
      ok = bfs_batch_capped<std::uint8_t>(csr, sources, MaskedEdge{}, rows.data(),
                                          csr.num_vertices(), ws, v, kSearchInf8,
                                          kMaxFiniteFor<std::uint8_t>);
    }
    if (!ok) {
      std::vector<std::uint16_t> rows(sources.size() * csr.num_vertices());
      ok = bfs_batch_capped<std::uint16_t>(csr, sources, MaskedEdge{}, rows.data(),
                                           csr.num_vertices(), ws, v, kSearchInf16,
                                           kMaxFiniteFor<std::uint16_t>);
    }
    layers.add("graph.row_fill_s", trace.close(span));
    if (!ok) throw std::runtime_error("row fill saturated at u16");
  }

  Outcome finish(const std::vector<ShardResult>& slice, const ShardedCertificate& refute,
                 double wall_s) {
    Outcome o;
    o.wall_s = wall_s;
    std::ostringstream digest;
    for (const ShardResult& r : slice) {
      o.agents += r.scanned;
      o.moves += r.moves;
      digest << "agent " << r.agent_lo << (r.best ? " VIOLATED" : " clean") << " moves=" << r.moves
             << "; ";
      const std::uint64_t want = full_scan_moves(pristine_->graph(), true, r.agent_lo, r.agent_hi);
      if (r.best || r.scanned != 1 || r.moves != want) {
        o.error = "pristine torus agent " + std::to_string(r.agent_lo) + " is not clean";
      }
    }
    o.agents += refute.agents_scanned;
    o.moves += refute.certificate.moves_checked;
    digest << "perturbed " << certificate_digest(refute);
    o.digest = digest.str();
    if (!o.error.empty()) return o;
    const auto& witness = refute.certificate.witness;
    if (refute.certificate.is_equilibrium || !witness) {
      o.error = "the perturbed torus was not refuted";
    } else if (witness->swap.v != 0) {
      o.error = "the one-shard refute must stop at the perturbed agent 0";
    } else {
      o.error = check_witness(perturbed_->graph(), *witness, UsageCost::Max);
    }
    if (o.error.empty()) o.error = expect_repeatable("budget", o.digest);
    return o;
  }

  Vertex k_;
  std::uint64_t budget_;
  std::optional<Instance> pristine_;
  std::optional<Instance> perturbed_;
  std::unique_ptr<SwapEngine> engine_;
  std::vector<Vertex> slice_;
  std::vector<SwapEngine::Scratch> scratch_;
};

// ------------------------------------------------------------ equilibrate-gnm

/// Instance::equilibrate (round-robin, first improvement, sum model) from a
/// pool of seeded G(n, 2n) starts just above the SearchState cutoff.
class EquilibrateGnm final : public Workload {
 public:
  explicit EquilibrateGnm(bool smoke)
      : n_(smoke ? 40 : kSearchStateAutoMaxVertices + 8), pool_size_(smoke ? 2 : 32) {}

  void setup(std::uint64_t seed) override {
    pool_.clear();
    for (std::size_t p = 0; p < pool_size_; ++p) {
      pool_.push_back(Instance::gnm(n_, 2 * std::size_t{n_}, derive_seed(seed, 4, p)));
      (void)pool_.back().fingerprint();
    }
    spot_ = pick_agents(seed, n_, 2);
  }

  Outcome request(std::uint64_t i) override {
    const Clock::time_point t0 = Clock::now();
    const DynamicsResult result = instance(i).equilibrate(RunConfig{});
    const double wall_s = seconds_between(t0, Clock::now());
    return finish(i, result.graph, result.moves, result.passes, result.converged, wall_s);
  }

  /// The loop run_dynamics runs on the engine tier: first deviation per
  /// agent in round-robin order, apply, rebuild the snapshot, until a quiet
  /// pass; then the final certification.
  Outcome traced(std::uint64_t i, Trace& trace, Layers& layers) override {
    const RunConfig run;
    const Clock::time_point t0 = Clock::now();
    const std::int64_t root = trace.open("request", -1);
    Graph g = instance(i).graph();
    std::int64_t span = trace.open("core.engine_build", root);
    SwapEngine engine(g, run.resources);
    layers.add("core.engine_build_s", trace.close(span));
    SwapEngine::Scratch scratch;

    std::uint64_t moves = 0;
    std::uint64_t passes = 0;
    std::uint64_t checked = 0;
    bool out_of_budget = false;
    double scan_s = 0.0;
    double rebuild_s = 0.0;
    for (;;) {
      bool any_move = false;
      const std::int64_t pass = trace.open("core.dynamics.pass", root);
      for (Vertex v = 0; v < n_ && !out_of_budget; ++v) {
        Clock::time_point t = Clock::now();
        const auto dev = engine.first_deviation(v, UsageCost::Sum, scratch, false, &checked);
        scan_s += seconds_between(t, Clock::now());
        if (!dev) continue;
        apply_swap(g, dev->swap);
        t = Clock::now();
        engine.rebuild(g);
        rebuild_s += seconds_between(t, Clock::now());
        any_move = true;
        if (++moves >= run.max_moves) out_of_budget = true;
      }
      trace.close(pass);
      ++passes;
      if (!any_move || out_of_budget) break;
    }
    span = trace.open("core.dynamics.final_certify", root);
    const bool converged =
        !out_of_budget && engine.certify(UsageCost::Sum, false).is_equilibrium;
    layers.add("core.dynamics.final_certify_s", trace.close(span));
    probe_csr(g, trace, root, layers);
    trace.close(root);

    layers.add("core.dynamics.moves", static_cast<double>(moves));
    layers.add("core.dynamics.passes", static_cast<double>(passes));
    layers.add("core.dynamics.scan_s", scan_s);
    layers.add("core.dynamics.rebuild_s", rebuild_s);
    layers.add("core.dynamics.search_state_tier", search_state_enabled(instance(i).graph()) ? 1 : 0);
    layers.add("core.moves_checked", static_cast<double>(checked));
    return finish(i, g, moves, passes, converged, seconds_between(t0, Clock::now()));
  }

  std::string shape() const override {
    return "gnm n=" + std::to_string(n_) + " m=" + std::to_string(2 * n_) + " pool=" +
           std::to_string(pool_size_) + " model=sum round-robin first-improvement";
  }
  /// run_dynamics scans agents one after another; only the final
  /// certification uses the pool.
  bool serial() const override { return true; }

 private:
  [[nodiscard]] const Instance& instance(std::uint64_t i) const { return pool_[i % pool_size_]; }

  Outcome finish(std::uint64_t i, const Graph& final_graph, std::uint64_t moves,
                 std::uint64_t passes, bool converged, double wall_s) {
    Outcome o;
    o.wall_s = wall_s;
    o.agents = (passes + 1) * n_;  // every pass scans every agent, plus the final certify
    o.moves = moves;
    std::ostringstream digest;
    digest << "moves=" << moves << " passes=" << passes << (converged ? " converged" : " capped")
           << " final=" << std::hex << graph_fingerprint(final_graph);
    o.digest = digest.str();
    if (!converged) {
      o.error = "dynamics did not converge";
    } else if (final_graph.num_edges() != instance(i).num_edges()) {
      o.error = "swap dynamics changed the edge count";
    } else if (!is_connected(final_graph)) {
      o.error = "the final graph is disconnected";
    } else {
      // Independent spot check of the equilibrium with the naive oracle.
      BfsWorkspace ws;
      for (const Vertex v : spot_) {
        if (naive::first_sum_deviation(final_graph, v, ws)) {
          o.error = "agent " + std::to_string(v) + " still has an improving swap";
        }
      }
    }
    if (o.error.empty()) o.error = expect_repeatable(std::to_string(i % pool_size_), o.digest);
    return o;
  }

  Vertex n_;
  std::size_t pool_size_;
  std::vector<Instance> pool_;
  std::vector<Vertex> spot_;
};

// -------------------------------------------------------------- serve-session

/// One served certification session per request: serve_jobs on a unix
/// socket with a durable journal, and three in-process connected workers.
/// serve_jobs binds its listener and takes the workers' Hellos inside each
/// session, so those count in the request, not in set-up.
class ServeSession final : public Workload {
 public:
  ServeSession(bool smoke, std::string work_dir)
      : n_(smoke ? 48 : 512),
        pool_size_(smoke ? 1 : 4),
        shards_(smoke ? 6 : 32),
        work_dir_(std::move(work_dir)) {}

  void setup(std::uint64_t seed) override {
    pool_.clear();
    jobs_.clear();
    for (std::size_t p = 0; p < pool_size_; ++p) {
      pool_.push_back(Instance::gnm(n_, 2 * std::size_t{n_}, derive_seed(seed, 5, p)));
      svc::JobSpec job;
      job.fingerprint = pool_.back().fingerprint();
      job.n = n_;
      job.m = pool_.back().num_edges();
      job.model = UsageCost::Max;
      job.shards = shards_;
      jobs_.push_back(job);
    }
  }

  Outcome request(std::uint64_t i) override {
    const std::size_t p = i % pool_size_;
    const std::string root = fresh_dir("session");
    svc::MultiServeConfig config;
    config.address = "unix:" + root + "/dispatcher.sock";
    config.journal_root = root + "/journal";

    const Clock::time_point t0 = Clock::now();
    std::optional<svc::MultiServeOutcome> served;
    std::exception_ptr serve_error;
    std::atomic<bool> serve_done{false};
    std::thread dispatcher([&] {
      try {
        served = svc::serve_jobs({jobs_[p]}, config);
      } catch (...) {
        serve_error = std::current_exception();
      }
      serve_done.store(true);
    });
    while (!serve_done.load() && !fs::exists(root + "/dispatcher.sock")) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    std::vector<svc::WorkerReport> reports(kWorkers);
    std::vector<std::string> worker_errors(kWorkers);
    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        svc::ConnectConfig connect;
        connect.address = config.address;
        connect.connect_retries = 12;
        connect.connect_backoff_ms = 1;
        try {
          reports[w] = svc::run_connect_worker(pool_[p].graph(), connect);
        } catch (const std::exception& e) {
          worker_errors[w] = e.what();
        }
      });
    }
    for (std::thread& t : workers) t.join();
    dispatcher.join();
    const double wall_s = seconds_between(t0, Clock::now());

    Outcome o;
    o.wall_s = wall_s;
    stats_ = served ? served->stats : svc::ServeStats{};
    reports_ = reports;
    try {
      if (serve_error) std::rethrow_exception(serve_error);
    } catch (const std::exception& e) {
      o.error = std::string("serve failed: ") + e.what();
      return o;
    }
    for (const std::string& e : worker_errors) {
      if (!e.empty()) o.error = "worker failed: " + e;
    }
    const bool complete = served->sessions.size() == 1 && served->sessions[0].complete &&
                          served->sessions[0].certificate.has_value();
    if (!complete) {
      o.error = "the session did not complete";
      return o;
    }
    fs::remove_all(root);
    return finish(p, *served->sessions[0].certificate, std::move(o));
  }

  /// The session's data path rebuilt from its layers: three worker threads
  /// claim the canonical ranges, scan each with certify_agent_range, then
  /// wire-encode and frame the result; the dispatcher side unframes,
  /// decodes, journals and folds every result in shard order.
  Outcome traced(std::uint64_t i, Trace& trace, Layers& layers) override {
    const std::size_t p = i % pool_size_;
    const Graph& g = pool_[p].graph();
    const std::string root = fresh_dir("traced");
    const Clock::time_point t0 = Clock::now();
    const std::int64_t request = trace.open("request", -1);
    std::int64_t span = trace.open("core.engine_build", request);
    const SwapEngine engine(g, ResourceConfig{});
    layers.add("core.engine_build_s", trace.close(span));

    std::vector<std::string> frames(shards_);
    std::vector<double> shard_s(shards_);
    std::vector<double> wire_s(shards_);
    std::vector<double> frame_s(shards_);
    std::vector<std::exception_ptr> worker_errors(kWorkers);
    std::vector<SwapEngine::Scratch> scratch(kWorkers);
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        try {
          for (std::size_t k = next++; k < shards_; k = next++) {
            std::int64_t id = trace.open("core.shard", request, w);
            const ShardResult shard = certify_agent_range(
                engine, canonical_range(n_, k, shards_), UsageCost::Max, false, false, &scratch[w]);
            shard_s[k] = trace.close(id);
            id = trace.open("svc.wire.encode", request, w);
            std::string bytes = shard_to_binary(shard);
            wire_s[k] = trace.close(id);
            id = trace.open("svc.frame.encode", request, w);
            frames[k] = svc::encode_frame(svc::make_result(std::move(bytes)));
            frame_s[k] = trace.close(id);
          }
        } catch (...) {
          worker_errors[w] = std::current_exception();
        }
      });
    }
    for (std::thread& t : workers) t.join();
    for (const std::exception_ptr& e : worker_errors) {
      if (e) std::rethrow_exception(e);
    }

    svc::JournalHeader header;
    header.fingerprint = jobs_[p].fingerprint;
    header.n = n_;
    header.m = jobs_[p].m;
    header.model = UsageCost::Max;
    header.shard_count = static_cast<std::uint32_t>(shards_);
    svc::ShardJournal journal = svc::ShardJournal::create(root + "/journal", header);

    ShardFold fold;
    const auto timed = [&](const char* name, const char* layer, auto&& body) {
      const std::int64_t id = trace.open(name, request);
      body();
      layers.add(layer, trace.close(id));
    };
    for (std::size_t k = 0; k < shards_; ++k) {
      layers.add("svc.wire.encode_s", wire_s[k]);
      layers.add("svc.frame.encode_s", frame_s[k]);
      std::optional<svc::Frame> decoded;
      ShardResult back;
      timed("svc.frame.decode", "svc.frame.decode_s",
            [&] { decoded = svc::try_decode_frame(frames[k]); });
      if (!decoded) throw std::runtime_error("a whole frame did not decode");
      layers.add("svc.wire.bytes", static_cast<double>(decoded->payload.size()));
      timed("svc.wire.decode", "svc.wire.decode_s",
            [&] { back = shard_from_binary(decoded->payload); });
      timed("svc.journal.record", "svc.journal.record_s", [&] { journal.record(back); });
      timed("core.fold", "core.fold_s", [&] { fold.add(back); });
    }
    ShardedCertificate cert;
    timed("core.fold", "core.fold_s", [&] { cert = fold.finish(); });
    record_shards(shard_s, 0.0, 1, layers);
    layers.add("core.moves_checked", static_cast<double>(cert.certificate.moves_checked));
    record_paths(engine, cert.agents_scanned, engine.width_fallbacks(), contexts_of(scratch),
                 layers);
    probe_csr(g, trace, request, layers);
    trace.close(request);

    layers.add("svc.leases_granted", static_cast<double>(stats_.leases_granted));
    layers.add("svc.redispatches", static_cast<double>(stats_.redispatches));
    layers.add("svc.expired_leases", static_cast<double>(stats_.expired_leases));
    layers.add("svc.corrupt_results", static_cast<double>(stats_.corrupt_results));
    std::size_t most = 0;
    std::size_t least = reports_.empty() ? 0 : reports_.front().leases_completed;
    for (const svc::WorkerReport& r : reports_) {
      most = std::max(most, r.leases_completed);
      least = std::min(least, r.leases_completed);
    }
    layers.add("svc.worker_lease_spread", static_cast<double>(most - least));

    Outcome o;
    o.wall_s = seconds_between(t0, Clock::now());
    fs::remove_all(root);
    return finish(p, cert, std::move(o));
  }

  std::string shape() const override {
    return "gnm n=" + std::to_string(n_) + " m=" + std::to_string(2 * n_) + " pool=" +
           std::to_string(pool_size_) + " model=max shards=" + std::to_string(shards_) +
           " workers=" + std::to_string(kWorkers) + " journal=on";
  }

 private:
  static constexpr int kWorkers = 3;

  [[nodiscard]] std::string fresh_dir(const std::string& name) const {
    const std::string dir = work_dir_ + "/" + name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
  }

  /// The served certificate must equal the in-process certificate of the
  /// same instance and shard count, byte for byte.
  Outcome finish(std::size_t p, const ShardedCertificate& cert, Outcome o) {
    o.agents = cert.agents_scanned;
    o.moves = cert.certificate.moves_checked;
    o.digest = certificate_digest(cert);
    if (!o.error.empty()) return o;
    if (reference_.size() <= p) reference_.resize(pool_size_);
    if (reference_[p].empty()) {
      RunConfig run;
      run.model = UsageCost::Max;
      run.shards = shards_;
      reference_[p] = certificate_digest(pool_[p].certify(run));
    }
    if (o.digest != reference_[p]) {
      o.error = "served certificate differs from the in-process one: '" + o.digest + "' vs '" +
                reference_[p] + "'";
      return o;
    }
    o.error = check_full_certificate(pool_[p].graph(), cert, UsageCost::Max, false);
    return o;
  }

  Vertex n_;
  std::size_t pool_size_;
  std::size_t shards_;
  std::string work_dir_;
  std::vector<Instance> pool_;
  std::vector<svc::JobSpec> jobs_;
  std::vector<std::string> reference_;
  svc::ServeStats stats_;
  std::vector<svc::WorkerReport> reports_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"certify-gnm", "certify-budget",
                                                 "equilibrate-gnm", "serve-session"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, bool smoke,
                                        const std::string& work_dir) {
  if (name == "certify-gnm") return std::make_unique<CertifyGnm>(smoke);
  if (name == "certify-budget") return std::make_unique<CertifyBudget>(smoke);
  if (name == "equilibrate-gnm") return std::make_unique<EquilibrateGnm>(smoke);
  if (name == "serve-session") return std::make_unique<ServeSession>(smoke, work_dir);
  return nullptr;
}

}  // namespace perfbench
