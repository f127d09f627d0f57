// Benchmark driver: replays one named workload through migopt's public entry
// points and prints its metrics as the last line of stdout, one JSON object.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics from untraced replays.
// --trace 1 measures per-layer costs. For that the driver runs
// sched::Cluster's session API itself, making SimEngine's calls in
// SimEngine's order, and times each call into the trace, sched, core,
// gpusim and obs layers. It checks that this loop reproduces
// SimEngine::replay bit for bit. Nothing inside the library is
// instrumented. README.md lists every metric and the workload it serves.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/assert.hpp"
#include "common/interner.hpp"
#include "core/workflow.hpp"
#include "gpusim/gpu.hpp"
#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"
#include "sched/cluster.hpp"
#include "trace/fleet.hpp"
#include "trace/generator.hpp"
#include "trace/presets.hpp"
#include "trace/sim_engine.hpp"
#include "workloads/corun_pairs.hpp"
#include "workloads/registry.hpp"

namespace {

using namespace migopt;
using Clock = std::chrono::steady_clock;

constexpr double kMaxSimSeconds = 1.0e8;
/// Set-ups per run (setup_s is their median): at least kMinSetups, more
/// while they take under kSetupBudgetSeconds in all, so that the small
/// workloads' few-millisecond set-ups get enough samples.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 25;
constexpr double kSetupBudgetSeconds = 1.5;
/// Untimed replays before measuring: the first in-process fleet replays run
/// about twice as slow as warm ones (cold page faults and allocator growth).
constexpr int kWarmupReplays = 2;
/// Fewest measured rounds, even if they overrun --seconds.
constexpr int kMinRounds = 3;
/// Seed of powercap-walk's budget walk (see make_trace).
constexpr std::uint64_t kWalkSeed = 8;

// --- Workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  int clusters;
  int nodes;  ///< per cluster
  std::size_t jobs;
  trace::ReplayRegime regime;
  /// Node count the preset's arrival rate is sized for. Above
  /// clusters * nodes the cluster is overloaded by that ratio.
  int rate_nodes;
};

// Why these four (README.md has the metric map): steady-1c loads the event
// core at a shallow queue; fleet-16x8 loads routing and shard fan-out;
// overload-1c holds a queue of 10^4-10^5 jobs, so dispatch scans dominate;
// powercap-walk is the only one where budget changes and the optimizer are
// hot.
constexpr Workload kWorkloads[] = {
    {"steady-1c", 1, 64, 1000000, trace::ReplayRegime::Poisson, 64},
    {"fleet-16x8", 16, 8, 1048576, trace::ReplayRegime::Poisson, 128},
    {"overload-1c", 1, 8, 60000, trace::ReplayRegime::Poisson, 32},
    {"powercap-walk", 1, 16, 200000, trace::ReplayRegime::BudgetWalk, 16},
};

bool is_fleet(const Workload& w) { return w.clusters > 1; }

std::size_t fleet_threads() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

sched::ClusterConfig cluster_config(const Workload& w) {
  sched::ClusterConfig config;
  config.node_count = w.nodes;
  config.max_sim_seconds = kMaxSimSeconds;
  config.event_core = sched::EventCore::Indexed;
  config.collect_job_stats = false;
  return config;
}

trace::SimConfig sim_config() {
  trace::SimConfig config;
  config.max_sim_seconds = kMaxSimSeconds;
  return config;
}

/// Fleet shape of `w`. Single-cluster workloads get a one-cluster fleet:
/// their admission metrics route the same arrival stream through the same
/// router, with nowhere else to send it.
trace::FleetConfig fleet_config(const Workload& w, std::uint64_t seed,
                                std::size_t threads) {
  trace::FleetConfig config;
  config.cluster_count = w.clusters;
  config.cluster = cluster_config(w);
  config.router.policy = trace::RouterPolicy::TenantAffinity;
  config.router.spill_delay_seconds = 60.0;
  // Tenant homes are part of the fleet's configuration, not of its input:
  // a seed-derived salt reshuffled them and moved mean wait by 10%.
  config.router.affinity_salt = 1;
  config.sim = sim_config();
  config.policy = trace::regime_policy(w.regime);
  config.seed = seed;
  config.threads = threads;
  return config;
}

// --- Small helpers -----------------------------------------------------------

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double median(std::vector<double> values) {
  MIGOPT_ENSURE(!values.empty(), "median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank quantile (the rank rule FleetRouter's latency uses).
double quantile(std::vector<std::uint32_t>& values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t rank = std::min(
      values.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(values.size())));
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Median duration of an empty timed region: the clock cost every timed
/// call below carries, subtracted before costs enter the ledger.
double clock_overhead_ns() {
  std::vector<std::uint32_t> samples(200000);
  for (std::uint32_t& sample : samples) {
    const std::uint64_t start = now_ns();
    sample = static_cast<std::uint32_t>(now_ns() - start);
  }
  return quantile(samples, 0.5);
}

// --- Setup and sessions ------------------------------------------------------

struct Setup {
  std::unique_ptr<gpusim::GpuChip> chip;
  std::unique_ptr<wl::WorkloadRegistry> registry;
  std::unique_ptr<core::ResourcePowerAllocator> trained;
  trace::Trace trace;
  double train_ms = 0.0;
  double generate_ms = 0.0;
};

/// One replay's private scheduling state, built like FleetEngine builds a
/// shard's: an allocator copied from the trained artifacts, its scheduler,
/// and a cluster. Replays never share one (profile runs mutate the
/// allocator).
struct Session {
  core::ResourcePowerAllocator allocator;
  sched::CoScheduler scheduler;
  sched::Cluster cluster;

  Session(const Setup& setup, const Workload& w)
      : allocator(setup.trained->model(), setup.trained->profiles(), {}),
        scheduler(allocator, trace::regime_policy(w.regime)),
        cluster(cluster_config(w)) {}
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
};

/// Relabels apps so the r-th most frequent app of `t` becomes `names[r]`.
/// The generator ranks apps by a seeded shuffle before drawing them
/// Zipf-skewed, so which apps are hot, and with them energy per job and
/// service rate, moved by about 19% between seeds. Fixing the popularity
/// order keeps every other draw of the seed (arrival times, job sizes,
/// tenants, app sequence) and makes the workload's load seed-stable.
void canonicalize_apps(trace::Trace& t, const std::vector<std::string>& names) {
  std::unordered_map<std::string, std::size_t> counts;
  for (const trace::TraceEvent& event : t.events)
    if (event.kind == trace::EventKind::JobArrival) ++counts[event.app];
  std::vector<std::pair<std::string, std::size_t>> ranked(counts.begin(),
                                                          counts.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  std::unordered_map<std::string, std::string> rename;
  for (std::size_t r = 0; r < ranked.size(); ++r)
    rename.emplace(ranked[r].first, names[r]);
  for (trace::TraceEvent& event : t.events)
    if (event.kind == trace::EventKind::JobArrival)
      event.app = rename.at(event.app);
}

/// The workload's trace. Arrivals are the Poisson preset's, sized by
/// `rate_nodes`, with apps in canonical popularity order. The budget walk
/// is the budget-walk preset's walk (presets.cpp) drawn from a fixed seed
/// (the preset's own at the default seed 7): over 200k jobs the walk only
/// wanders its range about four times, so a seeded walk moved replay speed
/// and mean wait several-fold between seeds.
trace::Trace make_trace(const Workload& w, std::uint64_t seed,
                        const std::vector<std::string>& apps) {
  trace::Trace arrivals = trace::make_regime_trace(
      trace::ReplayRegime::Poisson, w.jobs, w.rate_nodes, seed, apps);
  canonicalize_apps(arrivals, apps);
  if (w.regime != trace::ReplayRegime::BudgetWalk) return arrivals;
  const double nodes = static_cast<double>(w.clusters * w.nodes);
  trace::BudgetWalkConfig walk;
  walk.start_watts = 250.0 * nodes;
  walk.max_watts = walk.start_watts;
  walk.min_watts = 150.0 * nodes / 2.0;
  walk.step_watts = 100.0;
  walk.interval_seconds = 120.0;
  walk.horizon_seconds = arrivals.horizon_seconds();
  return trace::Trace::merge(arrivals, trace::make_budget_walk(walk, kWalkSeed));
}

/// Registry, training, trace generation and engine construction: what a
/// user pays before the first replay starts. Returns the seconds taken.
double set_up(const Workload& w, std::uint64_t seed,
              std::unique_ptr<Setup>& setup,
              std::unique_ptr<Session>& session) {
  session.reset();
  setup.reset();
  const auto start = Clock::now();
  setup = std::make_unique<Setup>();
  setup->chip = std::make_unique<gpusim::GpuChip>();
  setup->registry = std::make_unique<wl::WorkloadRegistry>(setup->chip->arch());
  auto phase = Clock::now();
  setup->trained = std::make_unique<core::ResourcePowerAllocator>(
      core::ResourcePowerAllocator::train(*setup->chip, *setup->registry,
                                          wl::table8_pairs()));
  setup->train_ms = since(phase) * 1e3;
  phase = Clock::now();
  setup->trace = make_trace(w, seed, setup->registry->names());
  setup->generate_ms = since(phase) * 1e3;
  if (!is_fleet(w)) session = std::make_unique<Session>(*setup, w);
  return since(start);
}

// --- Bit-for-bit report comparison -------------------------------------------

bool same_cluster(const sched::ClusterReport& a, const sched::ClusterReport& b) {
  return a.makespan_seconds == b.makespan_seconds &&
         a.total_energy_joules == b.total_energy_joules &&
         a.jobs_completed == b.jobs_completed &&
         a.pair_dispatches == b.pair_dispatches &&
         a.exclusive_dispatches == b.exclusive_dispatches &&
         a.profile_runs == b.profile_runs &&
         a.decision_cache_hits == b.decision_cache_hits &&
         a.decision_cache_misses == b.decision_cache_misses &&
         a.decision_cache_evictions == b.decision_cache_evictions &&
         a.run_memo_hits == b.run_memo_hits &&
         a.run_memo_misses == b.run_memo_misses &&
         a.mean_turnaround == b.mean_turnaround &&
         a.peak_cap_sum_watts == b.peak_cap_sum_watts &&
         a.node_failures == b.node_failures &&
         a.node_recoveries == b.node_recoveries &&
         a.jobs_killed == b.jobs_killed && a.jobs_shed == b.jobs_shed &&
         a.node_downtime_seconds == b.node_downtime_seconds &&
         a.jobs.size() == b.jobs.size();
}

bool same_tenants(const std::vector<trace::TenantStats>& a,
                  const std::vector<trace::TenantStats>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].tenant != b[i].tenant ||
        a[i].jobs_submitted != b[i].jobs_submitted ||
        a[i].jobs_completed != b[i].jobs_completed ||
        a[i].deadline_misses != b[i].deadline_misses ||
        a[i].work_seconds_submitted != b[i].work_seconds_submitted ||
        a[i].mean_queue_wait_seconds != b[i].mean_queue_wait_seconds ||
        a[i].mean_slowdown != b[i].mean_slowdown)
      return false;
  }
  return true;
}

/// Every simulated output of a replay (telemetry and host-time phase
/// tallies are observations, not outputs).
bool same_sim(const trace::SimReport& a, const trace::SimReport& b) {
  return same_cluster(a.cluster, b.cluster) &&
         a.jobs_submitted == b.jobs_submitted &&
         a.budget_events_applied == b.budget_events_applied &&
         a.deadline_misses == b.deadline_misses &&
         a.peak_queue_depth == b.peak_queue_depth &&
         a.mean_queue_wait_seconds == b.mean_queue_wait_seconds &&
         a.max_queue_wait_seconds == b.max_queue_wait_seconds &&
         a.mean_slowdown == b.mean_slowdown &&
         a.jobs_per_hour == b.jobs_per_hour &&
         same_tenants(a.tenants, b.tenants) &&
         a.faults.jobs_abandoned == b.faults.jobs_abandoned &&
         a.faults.retries == b.faults.retries;
}

bool same_fleet(const trace::FleetReport& a, const trace::FleetReport& b) {
  if (a.clusters.size() != b.clusters.size()) return false;
  for (std::size_t c = 0; c < a.clusters.size(); ++c)
    if (!same_sim(a.clusters[c], b.clusters[c])) return false;
  return a.shard_seeds == b.shard_seeds &&
         a.router.decisions == b.router.decisions &&
         a.router.spills == b.router.spills &&
         a.router.jobs_per_cluster == b.router.jobs_per_cluster &&
         a.router.budget_splits == b.router.budget_splits &&
         a.jobs_submitted == b.jobs_submitted &&
         a.jobs_completed == b.jobs_completed &&
         a.deadline_misses == b.deadline_misses &&
         a.pair_dispatches == b.pair_dispatches &&
         a.exclusive_dispatches == b.exclusive_dispatches &&
         a.profile_runs == b.profile_runs &&
         a.decision_cache_hits == b.decision_cache_hits &&
         a.decision_cache_misses == b.decision_cache_misses &&
         a.decision_cache_evictions == b.decision_cache_evictions &&
         a.run_memo_hits == b.run_memo_hits &&
         a.run_memo_misses == b.run_memo_misses &&
         a.makespan_seconds == b.makespan_seconds &&
         a.total_energy_joules == b.total_energy_joules &&
         a.peak_cap_sum_watts == b.peak_cap_sum_watts &&
         a.peak_queue_depth == b.peak_queue_depth &&
         a.mean_queue_wait_seconds == b.mean_queue_wait_seconds &&
         a.mean_slowdown == b.mean_slowdown &&
         a.aggregate_jobs_per_hour == b.aggregate_jobs_per_hour &&
         same_tenants(a.tenants, b.tenants);
}

/// Serially replayed shards must merge to the threaded fleet report: each
/// shard equals the fleet's copy, and the counters and index-order folds
/// the fleet derives from them recompute exactly.
bool shards_merge_to(const std::vector<trace::SimReport>& shards,
                     const trace::FleetReport& fleet) {
  if (shards.size() != fleet.clusters.size()) return false;
  std::size_t submitted = 0, completed = 0, pairs = 0, exclusives = 0;
  std::size_t hits = 0, misses = 0, memo_hits = 0, memo_misses = 0;
  std::size_t peak_depth = 0;
  double makespan = 0.0, energy = 0.0;
  for (std::size_t c = 0; c < shards.size(); ++c) {
    const trace::SimReport& s = shards[c];
    if (!same_sim(s, fleet.clusters[c])) return false;
    submitted += s.jobs_submitted;
    completed += s.cluster.jobs_completed;
    pairs += s.cluster.pair_dispatches;
    exclusives += s.cluster.exclusive_dispatches;
    hits += s.cluster.decision_cache_hits;
    misses += s.cluster.decision_cache_misses;
    memo_hits += s.cluster.run_memo_hits;
    memo_misses += s.cluster.run_memo_misses;
    peak_depth = std::max(peak_depth, s.peak_queue_depth);
    makespan = std::max(makespan, s.cluster.makespan_seconds);
    energy += s.cluster.total_energy_joules;
  }
  return submitted == fleet.jobs_submitted &&
         completed == fleet.jobs_completed && pairs == fleet.pair_dispatches &&
         exclusives == fleet.exclusive_dispatches &&
         hits == fleet.decision_cache_hits &&
         misses == fleet.decision_cache_misses &&
         memo_hits == fleet.run_memo_hits &&
         memo_misses == fleet.run_memo_misses &&
         peak_depth == fleet.peak_queue_depth &&
         makespan == fleet.makespan_seconds &&
         energy == fleet.total_energy_joules;
}

// --- Result ------------------------------------------------------------------

/// Metrics keyed by name, in output order, with every round's sample.
class Results {
 public:
  void add(const std::string& name, const char* unit, double value) {
    auto it = index_.find(name);
    if (it == index_.end()) {
      it = index_.emplace(name, rows_.size()).first;
      rows_.push_back({name, unit, {}});
    }
    rows_[it->second].samples.push_back(value);
  }

  void print(bool correct, std::size_t attempted, std::size_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      double value = median(rows_[i].samples);
      if (!std::isfinite(value)) value = 0.0;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", rows_[i].name.c_str(), value,
                  rows_[i].unit);
    }
    std::printf("}}\n");
  }

 private:
  struct Row {
    std::string name;
    const char* unit;
    std::vector<double> samples;
  };
  std::vector<Row> rows_;
  std::map<std::string, std::size_t> index_;
};

/// Outcome of the output checks; a failed check is reported on stderr and
/// turns the run's `correct` false.
struct Checks {
  bool ok = true;
  void require(bool condition, const char* what) {
    if (!condition) {
      std::fprintf(stderr, "perfbench: check failed: %s\n", what);
      ok = false;
    }
  }
};

// --- Admission ---------------------------------------------------------------

struct Admission {
  trace::RouterStats router;
  double plan_ms = 0.0;
};

/// FleetEngine::plan over the workload's trace, without per-decision timing.
Admission admit(const Workload& w, std::uint64_t seed, const trace::Trace& t) {
  const trace::FleetEngine engine(fleet_config(w, seed, 1));
  const auto start = Clock::now();
  const trace::RoutePlan plan = engine.plan(t);
  Admission out;
  out.plan_ms = since(start) * 1e3;
  out.router = plan.router;
  return out;
}

/// FNV-1a of a tenant name: the routing key FleetEngine::plan derives.
std::uint64_t tenant_key(const std::string& tenant) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : tenant) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Quantile of whole-nanosecond samples, reading each value v as spread
/// evenly over [v - 0.5, v + 0.5) (the grouped-data quantile). On a quiet
/// host most decisions take the same whole number of nanoseconds, and the
/// plain order statistic then read 40 ns on every run.
double grouped_quantile(std::vector<std::uint32_t>& values, double q) {
  if (values.empty()) return 0.0;
  const double target = q * static_cast<double>(values.size());
  const std::uint32_t v = static_cast<std::uint32_t>(quantile(values, q));
  std::size_t below = 0, equal = 0;
  for (const std::uint32_t x : values) {
    below += x < v;
    equal += x == v;
  }
  return v - 0.5 + (target - static_cast<double>(below)) /
                       static_cast<double>(equal);
}

struct Latency {
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  trace::RouterStats router;
};

/// Per-decision admission latency over the workload's trace. The pass
/// routes every arrival and splits every budget event as FleetEngine::plan
/// does, timing each FleetRouter::route call as plan's
/// measure_decision_latency does, but keeps the raw samples for
/// grouped_quantile.
Latency admission_latency(const Workload& w, std::uint64_t seed,
                          const trace::Trace& t) {
  const trace::FleetConfig config = fleet_config(w, seed, 1);
  trace::FleetRouter router(config.router, config.cluster_count,
                            config.cluster.node_count);
  std::unordered_map<std::string, std::uint64_t> keys;
  std::vector<std::uint32_t> ns;
  ns.reserve(t.events.size());
  for (const trace::TraceEvent& event : t.events) {
    if (event.kind != trace::EventKind::JobArrival) {
      if (event.budget_watts > 0.0)
        router.split_budget(event.budget_watts, config.power_split,
                            event.time_seconds);
      continue;
    }
    auto key = keys.find(event.tenant);
    if (key == keys.end())
      key = keys.emplace(event.tenant, tenant_key(event.tenant)).first;
    const std::uint64_t t0 = now_ns();
    router.route(key->second, event.time_seconds, event.work_seconds);
    ns.push_back(static_cast<std::uint32_t>(now_ns() - t0));
  }
  return {grouped_quantile(ns, 0.5), grouped_quantile(ns, 0.99),
          router.stats()};
}

bool same_routing(const trace::RouterStats& a, const trace::RouterStats& b) {
  return a.decisions == b.decisions && a.spills == b.spills &&
         a.jobs_per_cluster == b.jobs_per_cluster &&
         a.budget_splits == b.budget_splits;
}

// --- End-to-end run (--trace 0) ----------------------------------------------

int run_end_to_end(const Workload& w, std::uint64_t seed, double seconds) {
  Checks checks;
  Results results;
  std::unique_ptr<Setup> setup;
  std::unique_ptr<Session> session;
  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  while (setup_s.size() < static_cast<std::size_t>(kMinSetups) ||
         (setup_total_s < kSetupBudgetSeconds &&
          setup_s.size() < static_cast<std::size_t>(kMaxSetups))) {
    setup_s.push_back(set_up(w, seed, setup, session));
    setup_total_s += setup_s.back();
  }

  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::optional<trace::SimReport> first_sim;
  std::optional<trace::FleetReport> first_fleet;
  double jobs_per_hour = 0.0, energy_per_job_kj = 0.0, mean_wait_s = 0.0;

  // One untraced replay; returns its host seconds. Every replay must match
  // the first bit for bit. A replay that throws fails all its jobs.
  const auto replay = [&]() -> double {
    double wall = 0.0;
    try {
      if (is_fleet(w)) {
        const trace::FleetEngine engine(fleet_config(w, seed, fleet_threads()));
        const auto start = Clock::now();
        trace::FleetReport report = engine.replay(setup->trace);
        wall = since(start);
        attempted += report.jobs_submitted;
        failed += report.jobs_submitted - report.jobs_completed;
        if (!first_fleet) first_fleet = std::move(report);
        else checks.require(same_fleet(report, *first_fleet),
                            "two fleet replays in one process differ");
      } else {
        if (!session) session = std::make_unique<Session>(*setup, w);
        const auto start = Clock::now();
        trace::SimReport report =
            trace::SimEngine(sim_config())
                .replay(setup->trace, *setup->registry, session->cluster,
                        session->scheduler);
        wall = since(start);
        session.reset();
        attempted += report.jobs_submitted;
        failed += report.jobs_submitted - report.cluster.jobs_completed;
        if (!first_sim) first_sim = std::move(report);
        else checks.require(same_sim(report, *first_sim),
                            "two replays in one process differ");
      }
    } catch (const std::exception& error) {
      std::fprintf(stderr, "perfbench: replay threw: %s\n", error.what());
      attempted += w.jobs;
      failed += w.jobs;
      checks.ok = false;
    }
    return wall;
  };

  for (int i = 0; i < kWarmupReplays; ++i) replay();
  const trace::RouterStats planned = admit(w, seed, setup->trace).router;
  std::vector<double> replay_s, p50_ns, p99_ns;
  double round_s = 0.0;
  const auto start = Clock::now();
  while (replay_s.size() < static_cast<std::size_t>(kMinRounds) ||
         since(start) + round_s <= seconds) {
    const auto round_start = Clock::now();
    replay_s.push_back(replay());
    const Latency latency = admission_latency(w, seed, setup->trace);
    checks.require(same_routing(latency.router, planned),
                   "admission pass routes differently from FleetEngine::plan");
    p50_ns.push_back(latency.p50_ns);
    p99_ns.push_back(latency.p99_ns);
    round_s = since(round_start);
  }

  if (first_fleet) {
    jobs_per_hour = first_fleet->aggregate_jobs_per_hour;
    energy_per_job_kj = ratio(first_fleet->total_energy_joules,
                              static_cast<double>(first_fleet->jobs_completed)) /
                        1e3;
    mean_wait_s = first_fleet->mean_queue_wait_seconds;
  } else if (first_sim) {
    jobs_per_hour = first_sim->jobs_per_hour;
    energy_per_job_kj =
        ratio(first_sim->cluster.total_energy_joules,
              static_cast<double>(first_sim->cluster.jobs_completed)) /
        1e3;
    mean_wait_s = first_sim->mean_queue_wait_seconds;
  }
  checks.require(failed == 0, "jobs submitted but not completed");

  results.add("setup_s", "s", median(setup_s));
  results.add("replay_jobs_per_s", "1/s",
              ratio(static_cast<double>(w.jobs), median(replay_s)));
  results.add("admission_p50_ns", "ns", median(p50_ns));
  results.add("admission_p99_ns", "ns", median(p99_ns));
  results.add("peak_rss_mb", "MB", peak_rss_mb());
  results.add("sim_jobs_per_hour", "1/h", jobs_per_hour);
  results.add("sim_energy_per_job_kj", "kJ", energy_per_job_kj);
  results.add("sim_mean_wait_s", "s", mean_wait_s);
  std::printf("perfbench-info {\"rounds\": %zu, \"setup_reps\": %zu, "
              "\"warmup_replays\": %d, \"fleet_threads\": %zu}\n",
              replay_s.size(), setup_s.size(), kWarmupReplays,
              fleet_threads());
  results.print(checks.ok, attempted, failed);
  return 0;
}

// --- Traced run (--trace 1) --------------------------------------------------

/// Durations of one kind of timed call.
struct OpStat {
  std::vector<std::uint32_t> ns;
  std::uint64_t total_ns = 0;

  void add(std::uint64_t duration) {
    ns.push_back(static_cast<std::uint32_t>(
        std::min<std::uint64_t>(duration, 0xFFFFFFFFu)));
    total_ns += duration;
  }
  void merge(const OpStat& other) {
    ns.insert(ns.end(), other.ns.begin(), other.ns.end());
    total_ns += other.total_ns;
  }
  double ms() const { return static_cast<double>(total_ns) / 1e6; }
  /// Total with the clock's own share of every timed call removed.
  double ledger_ns(double clock_ns) const {
    return static_cast<double>(total_ns) -
           static_cast<double>(ns.size()) * clock_ns;
  }
};

/// What the traced session loop timed and produced.
struct LoopResult {
  OpStat intern;  ///< CoScheduler::intern_app per arrival (core)
  OpStat submit;
  OpStat set_budget;
  OpStat dispatch;
  OpStat next_completion;
  OpStat advance;
  OpStat session;  ///< begin_session + report
  sched::ClusterReport report;
  std::size_t peak_queue_depth = 0;
  double wall_s = 0.0;

  void merge(const LoopResult& other) {
    intern.merge(other.intern);
    submit.merge(other.submit);
    set_budget.merge(other.set_budget);
    dispatch.merge(other.dispatch);
    next_completion.merge(other.next_completion);
    advance.merge(other.advance);
    session.merge(other.session);
    peak_queue_depth = std::max(peak_queue_depth, other.peak_queue_depth);
    wall_s += other.wall_s;
    // The cluster counters the per-layer metrics read, summed over shards.
    report.jobs_completed += other.report.jobs_completed;
    report.decision_cache_hits += other.report.decision_cache_hits;
    report.decision_cache_misses += other.report.decision_cache_misses;
    report.decision_cache_evictions += other.report.decision_cache_evictions;
    report.run_memo_hits += other.report.run_memo_hits;
    report.run_memo_misses += other.report.run_memo_misses;
    report.pair_dispatches += other.report.pair_dispatches;
    report.exclusive_dispatches += other.report.exclusive_dispatches;
    report.profile_runs += other.report.profile_runs;
  }
  double ledger_ns(double clock_ns) const {
    return intern.ledger_ns(clock_ns) + submit.ledger_ns(clock_ns) +
           set_budget.ledger_ns(clock_ns) + dispatch.ledger_ns(clock_ns) +
           next_completion.ledger_ns(clock_ns) + advance.ledger_ns(clock_ns) +
           session.ledger_ns(clock_ns);
  }
};

/// A due trace event, whatever the source.
struct Step {
  const trace::TraceEvent* arrival = nullptr;  ///< null: budget event
  double watts = 0.0;
  Symbol tenant = kNoSymbol;
};

/// Events of a whole trace; tenants interned on first appearance, as
/// SimEngine does for a plain trace.
struct TraceSteps {
  const trace::Trace& trace;
  SymbolTable tenants;
  std::size_t next = 0;

  double next_time() const {
    return next < trace.events.size() ? trace.events[next].time_seconds
                                      : std::numeric_limits<double>::infinity();
  }
  Step pop() {
    const trace::TraceEvent& event = trace.events[next++];
    if (event.kind != trace::EventKind::JobArrival)
      return {nullptr, event.budget_watts, kNoSymbol};
    return {&event, 0.0, tenants.intern(event.tenant)};
  }
};

/// Events of one routed fleet shard, read through its index span.
struct ShardSteps {
  const trace::RoutedShard& shard;
  std::size_t next = 0;

  double time_of(std::uint32_t step) const {
    return (step & trace::RoutedShard::kShareBit)
               ? shard.shares[step & ~trace::RoutedShard::kShareBit]
                     .time_seconds
               : shard.fleet->events[step].time_seconds;
  }
  double next_time() const {
    return next < shard.steps.size() ? time_of(shard.steps[next])
                                     : std::numeric_limits<double>::infinity();
  }
  Step pop() {
    const std::uint32_t step = shard.steps[next++];
    if (step & trace::RoutedShard::kShareBit)
      return {nullptr,
              shard.shares[step & ~trace::RoutedShard::kShareBit].watts,
              kNoSymbol};
    const trace::TraceEvent& event = shard.fleet->events[step];
    if (event.kind != trace::EventKind::JobArrival)
      return {nullptr, event.budget_watts, kNoSymbol};
    return {&event, 0.0, shard.event_tenants[step]};
  }
};

/// SimEngine's fault-free event loop, driven through Cluster's public
/// session API with every call timed. Must produce SimEngine's
/// ClusterReport and peak queue depth exactly.
template <typename Steps>
LoopResult traced_session(Steps& steps, const wl::WorkloadRegistry& registry,
                          Session& s) {
  LoopResult r;
  sched::Cluster& cluster = s.cluster;
  sched::CoScheduler& scheduler = s.scheduler;
  const auto wall_start = Clock::now();
  std::uint64_t t0 = now_ns();
  cluster.begin_session(scheduler);
  r.session.add(now_ns() - t0);
  const gpusim::GpuChip& chip = cluster.nodes().front()->chip();

  struct AppInfo {
    const gpusim::KernelDescriptor* kernel = nullptr;
    double solo_seconds_per_wu = 0.0;
  };
  std::vector<AppInfo> apps;
  std::size_t submitted = 0;
  double now = 0.0;
  while (true) {
    while (steps.next_time() <= now) {
      const Step step = steps.pop();
      if (step.arrival == nullptr) {
        const std::optional<double> watts =
            step.watts > 0.0 ? std::optional<double>(step.watts) : std::nullopt;
        t0 = now_ns();
        cluster.set_power_budget(watts);
        r.set_budget.add(now_ns() - t0);
        continue;
      }
      const trace::TraceEvent& arrival = *step.arrival;
      sched::Job job;
      job.id = static_cast<sched::JobId>(submitted++);
      t0 = now_ns();
      job.app_id = scheduler.intern_app(arrival.app);
      r.intern.add(now_ns() - t0);
      job.tenant_id = step.tenant;
      if (job.app_id >= apps.size()) apps.resize(job.app_id + 1);
      AppInfo& info = apps[job.app_id];
      if (info.kernel == nullptr) {
        info.kernel = &registry.by_name(arrival.app).kernel;
        info.solo_seconds_per_wu = chip.baseline_seconds(*info.kernel);
      }
      job.kernel = info.kernel;
      job.solo_seconds_per_wu = info.solo_seconds_per_wu;
      job.work_units =
          std::max(1.0, arrival.work_seconds / job.solo_seconds_per_wu);
      job.submit_time = arrival.time_seconds;
      job.priority = arrival.priority;
      t0 = now_ns();
      cluster.submit(std::move(job));
      r.submit.add(now_ns() - t0);
    }

    t0 = now_ns();
    cluster.dispatch(scheduler, now);
    r.dispatch.add(now_ns() - t0);
    r.peak_queue_depth = std::max(r.peak_queue_depth, cluster.queued_count());

    t0 = now_ns();
    const double t_done = cluster.next_completion_time();
    r.next_completion.add(now_ns() - t0);
    const double t_next = std::min(steps.next_time(), t_done);
    if (!std::isfinite(t_next)) {
      MIGOPT_ENSURE(cluster.queued_count() == 0, "traced session stalled");
      break;
    }
    MIGOPT_ENSURE(t_next <= kMaxSimSeconds, "traced session overran its guard");
    now = std::max(now, t_next);
    t0 = now_ns();
    cluster.advance_to(now, scheduler);
    r.advance.add(now_ns() - t0);
  }
  t0 = now_ns();
  r.report = cluster.report(scheduler);
  r.session.add(now_ns() - t0);
  r.wall_s = since(wall_start);
  return r;
}

/// Unit costs behind a DecisionCache miss (one allocator search) and a
/// RunMemo miss (one physics solve), over every ordered pair of profiled
/// apps: the decision comes from ResourcePowerAllocator::allocate, the
/// solve from GpuChip::run_pair on the shape it picked.
struct UnitCosts {
  double allocate_ns_p50 = 0.0;
  double solve_ns_p50 = 0.0;
};

UnitCosts unit_costs(const core::ResourcePowerAllocator& allocator,
                     const Setup& setup, const core::Policy& policy) {
  std::vector<std::string> apps;
  for (const std::string& app : setup.registry->names())
    if (allocator.can_coschedule(app)) apps.push_back(app);
  std::vector<std::uint32_t> allocate_ns, solve_ns;
  for (const std::string& a : apps) {
    for (const std::string& b : apps) {
      if (a == b) continue;
      core::Decision decision;
      for (int rep = 0; rep < 3; ++rep) {
        const std::uint64_t t0 = now_ns();
        decision = allocator.allocate(a, b, policy);
        allocate_ns.push_back(static_cast<std::uint32_t>(now_ns() - t0));
      }
      const std::uint64_t t0 = now_ns();
      const gpusim::RunResult run = setup.chip->run_pair(
          setup.registry->by_name(a).kernel, decision.state.gpcs_app1,
          setup.registry->by_name(b).kernel, decision.state.gpcs_app2,
          decision.state.option, decision.power_cap_watts);
      solve_ns.push_back(static_cast<std::uint32_t>(now_ns() - t0));
      MIGOPT_ENSURE(!run.apps.empty(), "physics solve returned no apps");
    }
  }
  return {quantile(allocate_ns, 0.5), quantile(solve_ns, 0.5)};
}

/// Telemetry interval giving about 256 samples over the trace.
double telemetry_interval(const trace::Trace& t) {
  return std::max(1.0, t.horizon_seconds() / 256.0);
}

/// Per-layer metrics of the traced session loop (single cluster or summed
/// over fleet shards).
void add_loop_metrics(Results& results, LoopResult& loop) {
  const sched::ClusterReport& c = loop.report;
  results.add("sched.submit_calls", "count", loop.submit.ns.size());
  results.add("sched.submit_ms", "ms", loop.submit.ms());
  results.add("sched.set_budget_calls", "count", loop.set_budget.ns.size());
  results.add("sched.set_budget_ms", "ms", loop.set_budget.ms());
  results.add("sched.dispatch_calls", "count", loop.dispatch.ns.size());
  results.add("sched.dispatch_ms", "ms", loop.dispatch.ms());
  results.add("sched.dispatch_p50_ns", "ns", quantile(loop.dispatch.ns, 0.5));
  results.add("sched.dispatch_p99_ns", "ns", quantile(loop.dispatch.ns, 0.99));
  results.add("sched.advance_calls", "count", loop.advance.ns.size());
  results.add("sched.advance_ms", "ms", loop.advance.ms());
  results.add("sched.advance_p99_ns", "ns", quantile(loop.advance.ns, 0.99));
  results.add("sched.next_completion_ms", "ms", loop.next_completion.ms());
  results.add("core.intern_app_ms", "ms", loop.intern.ms());
  results.add("sched.peak_queue_depth", "count", loop.peak_queue_depth);
  results.add("sched.decision_cache_hits", "count", c.decision_cache_hits);
  results.add("sched.decision_cache_misses", "count", c.decision_cache_misses);
  results.add("sched.decision_cache_evictions", "count",
              c.decision_cache_evictions);
  results.add("sched.run_memo_hits", "count", c.run_memo_hits);
  results.add("sched.run_memo_misses", "count", c.run_memo_misses);
  results.add("sched.pair_dispatches", "count", c.pair_dispatches);
  results.add("sched.exclusive_dispatches", "count", c.exclusive_dispatches);
  results.add("sched.profile_runs", "count", c.profile_runs);
}

/// One traced round of a single-cluster workload.
void traced_round_single(const Workload& w, std::uint64_t seed,
                         const Setup& setup, double clock_ns, Checks& checks,
                         Results& results,
                         std::optional<trace::SimReport>& first) {
  const trace::SimEngine engine(sim_config());
  Session plain_session(setup, w);
  auto start = Clock::now();
  const trace::SimReport plain = engine.replay(
      setup.trace, *setup.registry, plain_session.cluster,
      plain_session.scheduler);
  const double plain_s = since(start);
  if (!first) first = plain;
  checks.require(same_sim(plain, *first), "two replays in one process differ");

  Session loop_session(setup, w);
  TraceSteps steps{setup.trace, {}, 0};
  LoopResult loop = traced_session(steps, *setup.registry, loop_session);
  checks.require(same_cluster(loop.report, plain.cluster) &&
                     loop.peak_queue_depth == plain.peak_queue_depth,
                 "traced session loop differs from SimEngine::replay");

  Session obs_session(setup, w);
  obs::Registry registry;
  obs::SpanTracer tracer(true);
  trace::SimConfig obs_config = sim_config();
  obs_config.metrics = &registry;
  obs_config.tracer = &tracer;
  obs_config.telemetry.interval_seconds = telemetry_interval(setup.trace);
  start = Clock::now();
  const trace::SimReport observed = trace::SimEngine(obs_config).replay(
      setup.trace, *setup.registry, obs_session.cluster, obs_session.scheduler);
  const double obs_s = since(start);
  checks.require(same_sim(observed, plain) && !observed.telemetry.rows.empty(),
                 "attaching the obs sinks changed the replay");

  const Admission admission = admit(w, seed, setup.trace);
  const UnitCosts costs = unit_costs(loop_session.allocator, setup,
                                     trace::regime_policy(w.regime));

  const double explained_ms = loop.ledger_ns(clock_ns) / 1e6;
  add_loop_metrics(results, loop);
  results.add("core.train_ms", "ms", setup.train_ms);
  results.add("trace.generate_ms", "ms", setup.generate_ms);
  results.add("core.allocate_ns_p50", "ns", costs.allocate_ns_p50);
  results.add("gpusim.solve_ns", "ns", costs.solve_ns_p50);
  results.add("trace.plan_ms", "ms", admission.plan_ms);
  results.add("trace.route_calls", "count", admission.router.decisions);
  results.add("trace.spill_frac", "ratio",
              ratio(admission.router.spills, admission.router.decisions));
  // One shard, nothing to fan out: the shard is the whole replay.
  results.add("trace.shard_replay_ms_max", "ms", plain_s * 1e3);
  results.add("trace.shard_replay_ms_sum", "ms", plain_s * 1e3);
  results.add("trace.fleet_speedup_2t", "x", 1.0);
  results.add("trace.fleet_speedup_4t", "x", 1.0);
  results.add("trace.shard_imbalance", "x", 1.0);
  results.add("obs.overhead_pct", "%", 100.0 * ratio(obs_s - plain_s, plain_s));
  results.add("bench.trace_overhead_pct", "%",
              100.0 * ratio(loop.wall_s - plain_s, plain_s));
  results.add("ledger.explained_ms", "ms", explained_ms);
  results.add("ledger.replay_ms", "ms", plain_s * 1e3);
  results.add("ledger.residual_pct", "%",
              100.0 * ratio(plain_s * 1e3 - explained_ms, plain_s * 1e3));
  results.add("job_failure_frac", "ratio",
              ratio(static_cast<double>(plain.jobs_submitted -
                                        plain.cluster.jobs_completed),
                    static_cast<double>(plain.jobs_submitted)));
}

/// One traced round of the fleet workload.
void traced_round_fleet(const Workload& w, std::uint64_t seed,
                        const Setup& setup, double clock_ns, Checks& checks,
                        Results& results,
                        std::optional<trace::FleetReport>& first) {
  const std::size_t threads = fleet_threads();
  // Thread scaling: the same fleet at 1, 2 and `threads` workers.
  std::map<std::size_t, double> wall_s;
  trace::FleetReport fleet;
  for (const std::size_t t : {std::size_t{1}, std::size_t{2}, threads}) {
    if (wall_s.count(t) != 0) continue;
    const trace::FleetEngine engine(fleet_config(w, seed, t));
    const auto start = Clock::now();
    fleet = engine.replay(setup.trace);
    wall_s[t] = since(start);
    if (!first) first = fleet;
    checks.require(same_fleet(fleet, *first),
                   "fleet replays differ across runs or thread counts");
  }

  const trace::FleetEngine planner(fleet_config(w, seed, 1));
  auto start = Clock::now();
  const trace::RoutePlan plan = planner.plan(setup.trace);
  const double plan_ms = since(start) * 1e3;

  // Each shard through SimEngine::replay, serially and timed.
  const trace::SimEngine engine(sim_config());
  std::vector<trace::SimReport> shards;
  std::vector<double> shard_ms;
  for (std::size_t c = 0; c < plan.steps.size(); ++c) {
    Session session(setup, w);
    const trace::RoutedShard shard = plan.shard(c);
    start = Clock::now();
    shards.push_back(engine.replay(shard, *setup.registry, session.cluster,
                                   session.scheduler));
    shard_ms.push_back(since(start) * 1e3);
  }
  checks.require(shards_merge_to(shards, fleet),
                 "serial shard replays do not merge to the fleet report");

  // Each shard through the traced session loop.
  LoopResult loop;
  std::unique_ptr<Session> last_session;
  for (std::size_t c = 0; c < plan.steps.size(); ++c) {
    last_session = std::make_unique<Session>(setup, w);
    const trace::RoutedShard shard = plan.shard(c);
    ShardSteps steps{shard, 0};
    const LoopResult shard_loop =
        traced_session(steps, *setup.registry, *last_session);
    checks.require(
        same_cluster(shard_loop.report, fleet.clusters[c].cluster) &&
            shard_loop.peak_queue_depth == fleet.clusters[c].peak_queue_depth,
        "traced session loop differs from the fleet's shard replay");
    loop.merge(shard_loop);
  }

  trace::FleetConfig obs_config = fleet_config(w, seed, threads);
  obs::Registry registry;
  obs::SpanTracer tracer(true);
  obs_config.metrics = &registry;
  obs_config.tracer = &tracer;
  obs_config.sim.telemetry.interval_seconds = telemetry_interval(setup.trace);
  start = Clock::now();
  const trace::FleetReport observed =
      trace::FleetEngine(obs_config).replay(setup.trace);
  const double obs_s = since(start);
  checks.require(same_fleet(observed, fleet) &&
                     !observed.clusters.front().telemetry.rows.empty(),
                 "attaching the obs sinks changed the fleet replay");

  const UnitCosts costs = unit_costs(last_session->allocator, setup,
                                     trace::regime_policy(w.regime));
  double shard_sum_ms = 0.0;
  for (const double ms : shard_ms) shard_sum_ms += ms;
  const double shard_max_ms = *std::max_element(shard_ms.begin(), shard_ms.end());
  const double serial_ms = wall_s[1] * 1e3;
  const double explained_ms =
      plan_ms + setup.train_ms + loop.ledger_ns(clock_ns) / 1e6;

  add_loop_metrics(results, loop);
  results.add("core.train_ms", "ms", setup.train_ms);
  results.add("trace.generate_ms", "ms", setup.generate_ms);
  results.add("core.allocate_ns_p50", "ns", costs.allocate_ns_p50);
  results.add("gpusim.solve_ns", "ns", costs.solve_ns_p50);
  results.add("trace.plan_ms", "ms", plan_ms);
  results.add("trace.route_calls", "count", plan.router.decisions);
  results.add("trace.spill_frac", "ratio",
              ratio(plan.router.spills, plan.router.decisions));
  results.add("trace.shard_replay_ms_max", "ms", shard_max_ms);
  results.add("trace.shard_replay_ms_sum", "ms", shard_sum_ms);
  results.add("trace.fleet_speedup_2t", "x", ratio(wall_s[1], wall_s[2]));
  results.add("trace.fleet_speedup_4t", "x", ratio(wall_s[1], wall_s[threads]));
  results.add("trace.shard_imbalance", "x",
              ratio(shard_max_ms,
                    shard_sum_ms / static_cast<double>(shard_ms.size())));
  results.add("obs.overhead_pct", "%",
              100.0 * ratio(obs_s - wall_s[threads], wall_s[threads]));
  results.add("bench.trace_overhead_pct", "%",
              100.0 * ratio(loop.wall_s * 1e3 - shard_sum_ms, shard_sum_ms));
  results.add("ledger.explained_ms", "ms", explained_ms);
  results.add("ledger.replay_ms", "ms", serial_ms);
  results.add("ledger.residual_pct", "%",
              100.0 * ratio(serial_ms - explained_ms, serial_ms));
  results.add("job_failure_frac", "ratio",
              ratio(static_cast<double>(fleet.jobs_submitted -
                                        fleet.jobs_completed),
                    static_cast<double>(fleet.jobs_submitted)));
}

int run_traced(const Workload& w, std::uint64_t seed, double seconds) {
  Checks checks;
  Results results;
  std::unique_ptr<Setup> setup;
  std::unique_ptr<Session> session;
  set_up(w, seed, setup, session);
  session.reset();
  const double clock_ns = clock_overhead_ns();

  // The end-to-end run's warm-up, so that round one is not the cold one.
  for (int i = 0; i < kWarmupReplays; ++i) {
    if (is_fleet(w)) {
      trace::FleetEngine(fleet_config(w, seed, fleet_threads()))
          .replay(setup->trace);
    } else {
      Session warm(*setup, w);
      trace::SimEngine(sim_config())
          .replay(setup->trace, *setup->registry, warm.cluster,
                  warm.scheduler);
    }
  }

  std::optional<trace::SimReport> first_sim;
  std::optional<trace::FleetReport> first_fleet;
  std::size_t rounds = 0;
  double round_s = 0.0;
  const auto start = Clock::now();
  do {
    const auto round_start = Clock::now();
    if (is_fleet(w))
      traced_round_fleet(w, seed, *setup, clock_ns, checks, results,
                         first_fleet);
    else
      traced_round_single(w, seed, *setup, clock_ns, checks, results,
                          first_sim);
    ++rounds;
    round_s = since(round_start);
  } while (since(start) + round_s <= seconds);

  std::size_t attempted = w.jobs;
  std::size_t failed = 0;
  if (first_fleet)
    failed = first_fleet->jobs_submitted - first_fleet->jobs_completed;
  else if (first_sim)
    failed = first_sim->jobs_submitted - first_sim->cluster.jobs_completed;
  checks.require(failed == 0, "jobs submitted but not completed");
  std::printf("perfbench-info {\"rounds\": %zu, \"clock_overhead_ns\": %.1f, "
              "\"fleet_threads\": %zu}\n",
              rounds, clock_ns, fleet_threads());
  results.print(checks.ok, attempted * rounds, failed * rounds);
  return 0;
}

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "NAME --seed N --seconds S --trace 0|1\n",
               message);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::optional<std::uint64_t> seed;
  std::optional<double> seconds;
  std::optional<int> traced;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") workload = value;
      else if (flag == "--seed") seed = std::stoull(value);
      else if (flag == "--seconds") seconds = std::stod(value);
      else if (flag == "--trace") traced = std::stoi(value);
      else usage(("unknown flag " + flag).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (argc % 2 != 1 || !seed || !seconds || !traced)
    usage("every flag needs a value");
  if (!(*seconds > 0.0) || (*traced != 0 && *traced != 1))
    usage("--seconds must be > 0 and --trace 0 or 1");
  const Workload* selected = nullptr;
  for (const Workload& w : kWorkloads)
    if (workload == w.name) selected = &w;
  if (selected == nullptr) usage(("unknown workload '" + workload + "'").c_str());

  std::printf("perfbench-info {\"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
              __VERSION__, PERFBENCH_BUILD_TYPE);
  try {
    return *traced == 1 ? run_traced(*selected, *seed, *seconds)
                        : run_end_to_end(*selected, *seed, *seconds);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_driver: %s\n", error.what());
    return 1;
  }
}
