#include "workloads.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <utility>

#include "bench_stats.h"
#include "fairmove/common/macros.h"
#include "fairmove/common/parallel.h"
#include "fairmove/common/rng.h"
#include "fairmove/core/fairmove.h"
#include "fairmove/rl/cma2c_policy.h"
#include "fairmove/rl/features.h"
#include "timed_policy.h"

namespace e2ebench {
namespace {

using fairmove::FairMoveConfig;
using fairmove::FairMoveSystem;
using fairmove::FleetMetrics;
using fairmove::GlobalPool;
using fairmove::PolicyKind;
using fairmove::PoolStats;
using fairmove::Simulator;
using fairmove::ThreadPool;
using Clock = std::chrono::steady_clock;
using LayerMap = std::map<std::string, double>;

// Workload shape. Changing any of these redefines the benchmark.
constexpr double kTrainEvalScale = 0.04;  // 805 taxis
constexpr double kDispatchScale = 0.08;   // 65 regions, 1,610 taxis
constexpr double kDayGtScale = 0.25;      // 161 regions, 5,033 taxis
constexpr int kTrainEpisodes = 1;         // per learned method, per comparison
constexpr int kBlockDays = 2;             // days per Reset() in the day loops
constexpr int kWarmupSlots = 6;           // stepped during set-up
constexpr uint64_t kPolicySeed = 7000;    // Evaluator::RunKind's seed
constexpr int kMaxErrors = 5;
// Wall time per operation is assembled from its fastest parts. The
// machines this runs on are shared: for seconds at a time other tenants
// take CPU from the pool's lanes or slow the core itself, and a parallel
// region waits for its slowest lane, so a day or a comparison run in such a
// spell takes up to 2x as long, and the median of a run moves with how much
// of it fell in such spells. Every repetition repeats the same work, so
// each slot (day workloads) or cell segment (train_eval) has one sample per
// repetition, and the operation is assembled from each one's fastest (see
// FastestPerPosition). Process CPU per operation is the 10th percentile of
// the repetitions. Medians and tails are printed alongside.
constexpr double kOpPercentile = 10.0;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Returns memory freed by the last repetition to the OS. Without this the
/// fan-out's per-thread malloc arenas keep what each method cell freed, and
/// peak RSS depends on which threads the cells happened to land on: across
/// ten train_eval runs its IQR/median fell from 0.17 to 0.03 with it.
void ReleaseFreedHeap() { malloc_trim(0); }

/// Starts a new peak-RSS window before an operation: returns freed heap to
/// the OS, then resets the kernel's peak (VmHWM) to the current RSS. The
/// peak over a whole run is the largest of many operations' peaks, and
/// moved with how method cells happened to overlap: across seven
/// train_eval runs its IQR/median was 0.12.
void StartPeakRssWindow() {
  ReleaseFreedHeap();
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);  // 5: reset the peak resident set size
    std::fclose(f);
  }
}

/// Peak RSS in MB since the last StartPeakRssWindow() (VmHWM); over the
/// process's life where the kernel does not support the reset.
double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    double kib = -1.0;
    while (kib < 0.0 && std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kib) != 1) kib = -1.0;
    }
    std::fclose(f);
    if (kib >= 0.0) return kib / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string Fmt(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

/// Lower-case metric key of a method.
std::string MethodKey(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kGroundTruth: return "gt";
    case PolicyKind::kSd2: return "sd2";
    case PolicyKind::kTql: return "tql";
    case PolicyKind::kDqn: return "dqn";
    case PolicyKind::kTba: return "tba";
    case PolicyKind::kFairMove: return "fairmove";
    case PolicyKind::kFairCharge: return "faircharge";
  }
  return "unknown";
}

const std::vector<PolicyKind>& LearnedMethods() {
  static const std::vector<PolicyKind> kLearned = {
      PolicyKind::kFairMove, PolicyKind::kDqn, PolicyKind::kTba,
      PolicyKind::kTql};
  return kLearned;
}

// --- Metric schemas: every run of a mode prints exactly these. ----------

const std::vector<std::pair<std::string, std::string>>& EndToEndSchema() {
  static const std::vector<std::pair<std::string, std::string>> kSchema = {
      {"setup_s", "s"},
      {"op_wall_s", "s"},
      {"sim_taxi_slots_per_s", "1/s"},
      {"op_cpu_s", "s"},
      {"peak_rss_mb", "MB"},
      {"pe_cny_per_h", "CNY/h"},
  };
  return kSchema;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerSchema() {
  static const std::vector<std::pair<std::string, std::string>> kSchema = [] {
    std::vector<std::pair<std::string, std::string>> s = {
        {"geo.city_build_s", "s"},
        {"demand.model_build_s", "s"},
        {"sim.create_s", "s"},
        {"sim.steps", "count"},
        {"sim.step_self_s", "s"},
        {"sim.step_self_us_p50", "us"},
        {"rl.decide_s", "s"},
        {"rl.decide_calls", "count"},
        {"rl.decide_rows", "count"},
        {"rl.decide_ns_per_row", "ns"},
        {"rl.begin_episode_s", "s"},
        {"rl.begin_episode_calls", "count"},
    };
    for (PolicyKind kind : LearnedMethods()) {
      const std::string k = MethodKey(kind);
      s.push_back({"rl.learn_s." + k, "s"});
      s.push_back({"rl.learn_calls." + k, "count"});
      s.push_back({"rl.transitions." + k, "count"});
      s.push_back({"rl.learn_ns_per_transition." + k, "ns"});
    }
    s.push_back({"nn.learn_gflop.fairmove", "GFLOP"});
    s.push_back({"nn.learn_gflops.fairmove", "GFLOP/s"});
    for (PolicyKind kind : FairMoveSystem::AllMethods()) {
      s.push_back({"core.method_s." + MethodKey(kind), "s"});
    }
    for (PolicyKind kind : FairMoveSystem::AllMethods()) {
      s.push_back({"core.episode_other_s." + MethodKey(kind), "s"});
    }
    s.push_back({"core.fanout_speedup", "x"});
    s.push_back({"pool.regions", "count"});
    s.push_back({"pool.tasks", "count"});
    s.push_back({"pool.regions_per_slot", "count"});
    s.push_back({"pool.queue_wait_s", "s"});
    s.push_back({"trace.overhead_pct", "%"});
    return s;
  }();
  return kSchema;
}

/// Per-key median over repetitions (keys missing from a repetition are
/// skipped for that repetition).
LayerMap MedianMap(const std::vector<LayerMap>& reps) {
  std::map<std::string, std::vector<double>> values;
  for (const LayerMap& rep : reps) {
    for (const auto& [key, v] : rep) values[key].push_back(v);
  }
  LayerMap out;
  for (const auto& [key, v] : values) out[key] = Median(v);
  return out;
}

double Get(const LayerMap& m, const std::string& key) {
  auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

/// The repetition whose `key` is the (lower) median: a breakdown printed
/// from one repetition adds up exactly, which per-key medians need not.
const LayerMap& MedianRep(const std::vector<LayerMap>& reps,
                          const std::string& key) {
  std::vector<size_t> order(reps.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return Get(reps[a], key) < Get(reps[b], key);
  });
  return reps[order[(order.size() - 1) / 2]];
}

void AddPoolDelta(const PoolStats& before, const PoolStats& after,
                  double slots, LayerMap* layers) {
  const double regions = static_cast<double>(after.regions - before.regions);
  (*layers)["pool.regions"] = regions;
  (*layers)["pool.tasks"] = static_cast<double>(after.tasks - before.tasks);
  (*layers)["pool.regions_per_slot"] = slots > 0 ? regions / slots : 0.0;
  (*layers)["pool.queue_wait_s"] =
      1e-9 * static_cast<double>(after.queue_wait_ns_total -
                                 before.queue_wait_ns_total);
}

/// Operation count of CMA2C's learner for the batches `times` recorded,
/// computed from Cma2cPolicy::Options' shapes: Learn buffers transitions
/// until batch_size, then runs passes_per_batch updates over the buffer;
/// an update is a target-critic forward plus a critic forward and backward,
/// and after actor_warmup_batches updates also an actor forward and
/// backward. A dense layer costs 2*n*in*out FLOP forward and twice that
/// backward (weight and input gradients; none for the input layer's input).
double ComputedLearnGflop(const PolicyTimes& times, int input_dim,
                          int num_actions) {
  const fairmove::Cma2cPolicy::Options options;
  auto layer_macs = [&](const std::vector<int>& hidden, int out,
                        bool skip_first) {
    std::vector<int> sizes = {input_dim};
    sizes.insert(sizes.end(), hidden.begin(), hidden.end());
    sizes.push_back(out);
    double macs = 0.0;
    for (size_t i = skip_first ? 1 : 0; i + 1 < sizes.size(); ++i) {
      macs += static_cast<double>(sizes[i]) * sizes[i + 1];
    }
    return macs;
  };
  const double critic = layer_macs(options.critic_hidden, 1, false);
  const double critic_inner = layer_macs(options.critic_hidden, 1, true);
  const double actor = layer_macs(options.actor_hidden, num_actions, false);
  const double actor_inner =
      layer_macs(options.actor_hidden, num_actions, true);
  double flop = 0.0;
  int64_t buffered = 0;
  int updates = 0;
  for (int64_t batch : times.training_batches) {
    if (batch == 0) continue;
    buffered += batch;
    if (buffered < static_cast<int64_t>(options.batch_size)) continue;
    const double n = static_cast<double>(buffered);
    for (int pass = 0; pass < options.passes_per_batch; ++pass) {
      flop += 2.0 * n * critic * 2.0 + 2.0 * n * (critic + critic_inner);
      if (updates >= options.actor_warmup_batches) {
        flop += 2.0 * n * actor + 2.0 * n * (actor + actor_inner);
      }
      ++updates;
    }
    buffered = 0;
  }
  return flop * 1e-9;
}

/// The workload's configuration at input seed `seed`. The city is the
/// paper's fixed Shenzhen layout; the seed drives demand realisations,
/// training episodes and the evaluation episode.
FairMoveConfig WorkloadConfig(const std::string& workload, uint64_t seed) {
  FairMoveConfig config = FairMoveConfig::FullShenzhen();
  if (workload == "day_gt") {
    config = config.Scaled(kDayGtScale);
    config.sim.trace_level = fairmove::TraceLevel::kAggregatesOnly;
  } else if (workload == "dispatch_small") {
    config = config.Scaled(kDispatchScale);
  } else {
    config = config.Scaled(kTrainEvalScale);
  }
  config.sim.seed = fairmove::DeriveSeed(seed, 1, 0);
  config.trainer.seed_base = fairmove::DeriveSeed(seed, 2, 0) | 1;
  config.trainer.episodes = kTrainEpisodes;
  config.eval.seed = fairmove::DeriveSeed(seed, 3, 0);
  return config;
}

/// Accumulates operation outcomes and run-level errors.
class Outcome {
 public:
  void Op(const std::string& error) {
    ++attempted_;
    if (!error.empty()) {
      ++failed_;
      Note(error);
    }
  }
  void Note(const std::string& error) {
    if (static_cast<int>(errors_.size()) < kMaxErrors) errors_.push_back(error);
  }
  /// Every repetition must reproduce the first one's digest.
  void CheckDigest(uint64_t digest, const char* what) {
    if (!have_digest_) {
      digest_ = digest;
      have_digest_ = true;
    } else if (digest != digest_) {
      mismatch_ = true;
      Note(Fmt("%s digest %016" PRIx64 " != first %016" PRIx64, what, digest,
               digest_));
    }
  }
  void Fill(Result* r) const {
    r->attempted = attempted_;
    r->failed = failed_;
    r->errors = errors_;
    r->digest = digest_;
    if (mismatch_ && r->errors.empty()) r->errors.push_back("digest mismatch");
  }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> errors_;
  uint64_t digest_ = 0;
  bool have_digest_ = false;
  bool mismatch_ = false;
};

// --- Set-up ----------------------------------------------------------------

/// Measures set-up: building the workload's system and, via `prepare`, its
/// policy and lazy warm-up. Repetitions are spread over the run — a few up
/// front, more between operations — so the reported median samples the
/// same machine conditions the operations do.
class SetupMeter {
 public:
  SetupMeter(FairMoveConfig config,
             std::function<void(FairMoveSystem&)> prepare)
      : config_(std::move(config)), prepare_(std::move(prepare)) {
    GlobalPool();  // the pool is process-wide; build it outside the timing
  }

  /// Builds and times one system; nullptr once a build has failed.
  std::unique_ptr<FairMoveSystem> Build() {
    if (!error_.empty()) return nullptr;
    const Clock::time_point t0 = Clock::now();
    auto system_or = FairMoveSystem::Create(config_);
    if (!system_or.ok()) {
      error_ = "FairMoveSystem::Create: " + system_or.status().ToString();
      return nullptr;
    }
    prepare_(**system_or);
    samples_.push_back(SecondsSince(t0));
    total_s_ += samples_.back();
    return std::move(*system_or);
  }

  /// Repetitions between two operations: at least one, then more until
  /// set-up has taken kShare of the `elapsed_s` the run has measured.
  void Between(double elapsed_s) {
    constexpr double kShare = 0.05;
    constexpr int kMaxPerGap = 20;
    for (int rep = 0; rep < kMaxPerGap; ++rep) {
      if (rep > 0 && total_s_ >= kShare * elapsed_s) break;
      if (Build() == nullptr) break;
    }
  }

  const std::vector<double>& samples() const { return samples_; }
  const std::string& error() const { return error_; }

 private:
  FairMoveConfig config_;
  std::function<void(FairMoveSystem&)> prepare_;
  std::vector<double> samples_;
  double total_s_ = 0.0;
  std::string error_;
};

/// The per-layer split of set-up: the public builders FairMoveSystem::Create
/// calls, each timed on its own (median of a few repetitions).
LayerMap TimeBuilders(const FairMoveConfig& config, std::string* error) {
  constexpr int kReps = 5;
  std::vector<LayerMap> reps;
  for (int rep = 0; rep < kReps; ++rep) {
    LayerMap layers;
    Clock::time_point t = Clock::now();
    auto city_or = fairmove::CityBuilder(config.city).Build();
    layers["geo.city_build_s"] = SecondsSince(t);
    if (!city_or.ok()) {
      *error = "CityBuilder::Build: " + city_or.status().ToString();
      break;
    }
    t = Clock::now();
    auto demand_or = fairmove::DemandModel::Create(&*city_or, config.demand);
    layers["demand.model_build_s"] = SecondsSince(t);
    if (!demand_or.ok()) {
      *error = "DemandModel::Create: " + demand_or.status().ToString();
      break;
    }
    t = Clock::now();
    auto sim_or = Simulator::Create(&*city_or, &*demand_or,
                                    fairmove::TouTariff::Shenzhen(),
                                    config.sim);
    layers["sim.create_s"] = SecondsSince(t);
    if (!sim_or.ok()) {
      *error = "Simulator::Create: " + sim_or.status().ToString();
      break;
    }
    reps.push_back(std::move(layers));
  }
  return MedianMap(reps);
}

/// The system a run measures, after the up-front set-up repetitions.
std::unique_ptr<FairMoveSystem> InitialSetup(SetupMeter* meter) {
  constexpr int kUpFront = 3;
  std::unique_ptr<FairMoveSystem> system;
  for (int rep = 0; rep < kUpFront; ++rep) {
    system.reset();
    system = meter->Build();
  }
  return system;
}

// --- Reporting ---------------------------------------------------------------

std::string SummaryLine(const std::string& name, const std::string& unit,
                        const std::vector<double>& values) {
  const Summary s = Summarize(values);
  std::string line = Fmt("  %-22s %-6s median %.6g  q1 %.6g  q3 %.6g  n %zu",
                         name.c_str(), unit.c_str(), s.median, s.q1, s.q3,
                         s.n);
  if (s.tail_p >= 0.0) line += Fmt("  p%g %.6g", s.tail_p, s.tail);
  return line;
}

std::string ShareLine(int indent, const std::string& name, double seconds,
                      double parent) {
  return Fmt("%*s%-*s %10.4f s %6.1f%%", indent, "", 30 - indent,
             name.c_str(), seconds,
             parent > 0 ? 100.0 * seconds / parent : 0.0);
}

void FillMetrics(const std::vector<std::pair<std::string, std::string>>& schema,
                 const LayerMap& values, Result* result) {
  for (const auto& [name, unit] : schema) {
    result->metrics.push_back({name, unit, Get(values, name)});
  }
}

// --- train_eval --------------------------------------------------------------

/// One method's outcome in a comparison, from RunComparison or composed.
struct Cell {
  std::string name;
  FleetMetrics metrics;
  fairmove::ComparisonMetrics vs_gt;
  int num_taxis = 0;
};

/// Checks and digests one comparison; returns its digest.
uint64_t CheckComparison(const std::vector<Cell>& cells, Outcome* outcome) {
  static const std::vector<std::string> kExpected = {
      "GT", "SD2", "TQL", "DQN", "TBA", "FairMove"};
  Digest digest;
  for (size_t i = 0; i < kExpected.size(); ++i) {
    if (i >= cells.size()) {
      outcome->Op("method " + kExpected[i] + " missing");
      continue;
    }
    const Cell& cell = cells[i];
    std::string error =
        cell.name != kExpected[i]
            ? "method " + kExpected[i] + " missing (got " + cell.name + ")"
            : CheckFleetMetrics(cell.metrics, cell.num_taxis);
    if (!error.empty() && error.rfind("method", 0) != 0) {
      error = cell.name + ": " + error;
    }
    outcome->Op(error);
    digest.AddString(cell.name);
    digest.AddValue(FleetMetricsDigest(cell.metrics));
  }
  if (cells.size() > kExpected.size()) {
    outcome->Note("comparison returned extra methods");
  }
  return digest.value();
}

struct ComposedCell {
  Cell cell;
  double method_s = 0.0;
  double create_s = 0.0;    // replica simulator + policy
  double episodes_s = 0.0;  // training + evaluation episodes
  double metrics_s = 0.0;   // ComputeFleetMetrics + comparison to GT
  /// The cell cut at the start and end of every DecideActions and Learn
  /// call (PolicyTimes::call_bounds), from cell start to cell end.
  std::vector<double> segments_s;
  PolicyTimes times;
};

/// One method cell composed from the public calls Evaluator::RunKind makes,
/// with the policy wrapped in a TimedPolicy of `mode`.
ComposedCell RunComposedCell(FairMoveSystem& system, PolicyKind kind,
                             const FleetMetrics* gt, TimedPolicy::Mode mode) {
  ComposedCell out;
  const Clock::time_point t0 = Clock::now();
  auto sim_or = Simulator::Create(&system.city(), &system.demand(),
                                  system.sim().tariff(),
                                  system.sim().config());
  FM_CHECK(sim_or.ok()) << sim_or.status();
  std::unique_ptr<Simulator> sim = std::move(*sim_or);
  TimedPolicy policy(fairmove::MakePolicy(kind, *sim, kPolicySeed), mode);
  const FairMoveConfig& config = system.config();
  fairmove::Trainer trainer(sim.get(), config.trainer);
  out.create_s = SecondsSince(t0);
  const Clock::time_point t1 = Clock::now();
  if (policy.WantsTransitions()) trainer.Train(&policy);
  trainer.RunEvaluationEpisode(
      &policy, config.eval.seed,
      static_cast<int64_t>(config.eval.days) * fairmove::kSlotsPerDay);
  out.episodes_s = SecondsSince(t1);
  const Clock::time_point t2 = Clock::now();
  out.cell.name = policy.name();
  out.cell.metrics = fairmove::ComputeFleetMetrics(*sim);
  out.cell.vs_gt = fairmove::CompareToGroundTruth(
      gt != nullptr ? *gt : out.cell.metrics, out.cell.metrics);
  out.cell.num_taxis = sim->num_taxis();
  const Clock::time_point end = Clock::now();
  out.metrics_s = std::chrono::duration<double>(end - t2).count();
  out.method_s = std::chrono::duration<double>(end - t0).count();
  out.times = policy.times();
  std::vector<Clock::time_point>& stamps = out.times.call_bounds;
  Clock::time_point from = t0;
  for (const Clock::time_point& stamp : stamps) {
    out.segments_s.push_back(
        std::chrono::duration<double>(stamp - from).count());
    from = stamp;
  }
  out.segments_s.push_back(std::chrono::duration<double>(end - from).count());
  stamps = {};
  return out;
}

/// A comparison composed from the calls Evaluator::Run makes: the GT cell,
/// then one cell per other method fanned out on the pool.
struct ComposedComparison {
  std::vector<PolicyKind> kinds;    // AllMethods() order, GT first
  std::vector<ComposedCell> cells;  // one per kind
  double gt_s = 0.0;
  double fanout_s = 0.0;
  double wall_s = 0.0;
};

ComposedComparison RunComposedComparison(FairMoveSystem& system,
                                         TimedPolicy::Mode mode) {
  ComposedComparison out;
  out.kinds.push_back(PolicyKind::kGroundTruth);
  for (PolicyKind kind : FairMoveSystem::AllMethods()) {
    if (kind != PolicyKind::kGroundTruth) out.kinds.push_back(kind);
  }
  out.cells.resize(out.kinds.size());
  const Clock::time_point t0 = Clock::now();
  out.cells[0] =
      RunComposedCell(system, PolicyKind::kGroundTruth, nullptr, mode);
  out.gt_s = SecondsSince(t0);
  const FleetMetrics* gt = &out.cells[0].cell.metrics;
  const Clock::time_point t1 = Clock::now();
  GlobalPool().ParallelFor(
      static_cast<int64_t>(out.kinds.size()) - 1, [&](int64_t i) {
        const size_t k = static_cast<size_t>(i) + 1;
        out.cells[k] = RunComposedCell(system, out.kinds[k], gt, mode);
      });
  out.fanout_s = SecondsSince(t1);
  out.wall_s = SecondsSince(t0);
  return out;
}

/// The comparison's wall time assembled from each cell's fastest segments:
/// the GT cell, then the other cells list-scheduled on the pool's lanes in
/// the order ParallelFor hands them out.
double AssembledComparisonSeconds(
    const std::vector<FastestPerPosition>& fastest) {
  std::vector<double> rest;
  for (size_t i = 1; i < fastest.size(); ++i) rest.push_back(fastest[i].Sum());
  return fastest[0].Sum() +
         ListScheduleMakespan(rest, GlobalPool().num_threads());
}

Result RunTrainEval(const RunOptions& options) {
  Result result;
  Outcome outcome;
  const FairMoveConfig config = WorkloadConfig(options.workload, options.seed);
  SetupMeter setup(config, [](FairMoveSystem&) {});
  std::unique_ptr<FairMoveSystem> owned = InitialSetup(&setup);
  LayerMap setup_layers;
  std::string error;
  if (owned != nullptr && options.trace) {
    setup_layers = TimeBuilders(config, &error);
  }
  if (owned == nullptr || !error.empty()) {
    outcome.Note(owned == nullptr ? setup.error() : error);
    outcome.Fill(&result);
    return result;
  }
  FairMoveSystem& system = *owned;
  const int taxis = system.sim().num_taxis();
  const double slots_per_comparison =
      static_cast<double>(fairmove::kSlotsPerDay) *
      (6.0 * config.eval.days +
       static_cast<double>(LearnedMethods().size()) * config.trainer.episodes);
  int input_dim = 0;
  {
    const fairmove::FeatureExtractor features(&system.sim());
    input_dim = features.dim();
  }
  const int num_actions = system.sim().action_space().size();

  // The reference: RunComparison itself. Every composed comparison after it
  // must reproduce its digest, which proves the composition runs the same
  // computation.
  double reference_s = 0.0;
  {
    const Clock::time_point t0 = Clock::now();
    std::vector<fairmove::MethodResult> results =
        system.RunComparison(FairMoveSystem::AllMethods());
    reference_s = SecondsSince(t0);
    std::vector<Cell> cells;
    for (fairmove::MethodResult& r : results) {
      cells.push_back({r.name, std::move(r.metrics), r.vs_gt, taxis});
    }
    outcome.CheckDigest(CheckComparison(cells, &outcome), "RunComparison");
    ReleaseFreedHeap();
  }

  const size_t num_methods = FairMoveSystem::AllMethods().size();
  std::vector<FastestPerPosition> fastest(num_methods),
      fastest_traced(num_methods);
  std::vector<double> untraced_s, untraced_cpu_s, traced_s, peak_rss_mb;
  std::vector<LayerMap> traced_layers;
  std::vector<Cell> last_untraced;
  const Clock::time_point start = Clock::now();
  // Untraced comparisons stamp only call bounds; in the traced run they
  // alternate with fully timed ones, so both see the same machine state.
  for (int rep = 0;; ++rep) {
    const bool traced_rep = options.trace && rep % 2 == 1;
    StartPeakRssWindow();
    ThreadPool::SetTimingEnabled(traced_rep);
    const PoolStats pool0 = GlobalPool().stats();
    const double cpu0 = ProcessCpuSeconds();
    ComposedComparison comparison = RunComposedComparison(
        system, traced_rep ? TimedPolicy::Mode::kFull
                           : TimedPolicy::Mode::kBoundsOnly);
    const double cpu_s = ProcessCpuSeconds() - cpu0;
    const PoolStats pool1 = GlobalPool().stats();
    std::vector<FastestPerPosition>& best =
        traced_rep ? fastest_traced : fastest;
    std::vector<Cell> cells;
    for (size_t i = 0; i < comparison.cells.size(); ++i) {
      const ComposedCell& c = comparison.cells[i];
      if (!best[i].Add(c.segments_s)) {
        outcome.Note(c.cell.name + ": segment count changed between "
                                   "repetitions");
      }
      cells.push_back(c.cell);
    }
    outcome.CheckDigest(CheckComparison(cells, &outcome),
                        traced_rep ? "traced comparison" : "comparison");
    if (!traced_rep) {
      untraced_s.push_back(comparison.wall_s);
      untraced_cpu_s.push_back(cpu_s);
      peak_rss_mb.push_back(PeakRssMb());
      last_untraced = std::move(cells);
    } else {
      const double wall_s = comparison.wall_s;
      traced_s.push_back(wall_s);
      LayerMap layers;
      layers["x.wall_s"] = wall_s;
      layers["x.gt_cell_s"] = comparison.gt_s;
      layers["x.fanout_s"] = comparison.fanout_s;
      double method_sum = 0.0;
      double decide_s = 0.0, decide_calls = 0.0, decide_rows = 0.0;
      double begin_s = 0.0, begin_calls = 0.0;
      for (size_t i = 0; i < comparison.cells.size(); ++i) {
        const ComposedCell& c = comparison.cells[i];
        const PolicyKind kind = comparison.kinds[i];
        const std::string k = MethodKey(kind);
        const PolicyTimes& t = c.times;
        method_sum += c.method_s;
        decide_s += t.decide_s;
        decide_calls += static_cast<double>(t.decide_calls);
        decide_rows += static_cast<double>(t.decide_rows);
        begin_s += t.begin_s;
        begin_calls += static_cast<double>(t.begin_calls);
        layers["core.method_s." + k] = c.method_s;
        layers["core.episode_other_s." + k] =
            c.episodes_s - t.decide_s - t.learn_s - t.begin_s;
        layers["x.create_s." + k] = c.create_s;
        layers["x.metrics_s." + k] = c.metrics_s;
        layers["x.episodes_s." + k] = c.episodes_s;
        layers["x.decide_s." + k] = t.decide_s;
        layers["x.learn_s." + k] = t.learn_s;
        layers["x.begin_s." + k] = t.begin_s;
        if (kind != PolicyKind::kGroundTruth && kind != PolicyKind::kSd2) {
          layers["rl.learn_s." + k] = t.learn_s;
          layers["rl.learn_calls." + k] = static_cast<double>(t.learn_calls);
          layers["rl.transitions." + k] = static_cast<double>(t.transitions);
          layers["rl.learn_ns_per_transition." + k] =
              t.transitions > 0
                  ? 1e9 * t.learn_s / static_cast<double>(t.transitions)
                  : 0.0;
        }
        if (kind == PolicyKind::kFairMove) {
          const double gflop =
              ComputedLearnGflop(t, input_dim, num_actions);
          layers["nn.learn_gflop.fairmove"] = gflop;
          layers["nn.learn_gflops.fairmove"] =
              t.learn_s > 0 ? gflop / t.learn_s : 0.0;
        }
      }
      layers["rl.decide_s"] = decide_s;
      layers["rl.decide_calls"] = decide_calls;
      layers["rl.decide_rows"] = decide_rows;
      layers["rl.decide_ns_per_row"] =
          decide_rows > 0 ? 1e9 * decide_s / decide_rows : 0.0;
      layers["rl.begin_episode_s"] = begin_s;
      layers["rl.begin_episode_calls"] = begin_calls;
      layers["core.fanout_speedup"] = wall_s > 0 ? method_sum / wall_s : 0.0;
      AddPoolDelta(pool0, pool1, slots_per_comparison, &layers);
      traced_layers.push_back(std::move(layers));
    }
    const bool enough = !untraced_s.empty() &&
                        (!options.trace || !traced_s.empty()) &&
                        (options.trace || untraced_s.size() >= 2);
    if (enough && SecondsSince(start) >= options.seconds) break;
    ReleaseFreedHeap();
    setup.Between(SecondsSince(start));
  }
  ThreadPool::SetTimingEnabled(false);
  if (!setup.error().empty()) outcome.Note(setup.error());

  const double assembled_s = AssembledComparisonSeconds(fastest);
  outcome.Fill(&result);
  std::vector<std::string>& report = result.report;
  report.push_back(Fmt("train_eval: %d taxis, %d regions, %d stations, %d "
                       "learned-method episodes, %d evaluation days, seed "
                       "%" PRIu64,
                       taxis, system.city().num_regions(),
                       system.city().num_stations(), config.trainer.episodes,
                       config.eval.days, options.seed));
  report.push_back(SummaryLine("setup_s", "s", setup.samples()));
  report.push_back(Fmt("  %-22s %-6s %.6g  (RunComparison, once)",
                       "reference_s", "s", reference_s));
  report.push_back(SummaryLine("train_eval_s", "s", untraced_s));
  report.push_back(SummaryLine("train_eval_cpu_s", "s", untraced_cpu_s));
  report.push_back(SummaryLine("peak_rss_mb", "MB", peak_rss_mb));
  report.push_back(Fmt("  %-22s %-6s %.6g  (fastest of %d comparisons per "
                       "cell segment)",
                       "train_eval_assembled_s", "s", assembled_s,
                       fastest[0].repetitions()));
  const Cell* fairmove_cell = nullptr;
  for (const Cell& c : last_untraced) {
    if (c.name == "FairMove") fairmove_cell = &c;
  }
  double pe = 0.0;
  if (fairmove_cell != nullptr) {
    pe = fairmove_cell->metrics.pe.Mean();
    report.push_back(Fmt("  %-22s %-6s %.6g", "fairmove_pipe_pct", "%",
                         fairmove_cell->vs_gt.pipe));
    report.push_back(Fmt("  %-22s %-6s %.6g", "fairmove_pipf_pct", "%",
                         fairmove_cell->vs_gt.pipf));
  }
  for (const Cell& c : last_untraced) {
    report.push_back(Fmt("    %-9s PE %.4f CNY/h  PF %.4f  PIPE %+.3f%%  "
                         "PIPF %+.3f%%  trips %" PRId64,
                         c.name.c_str(), c.metrics.pe.Mean(), c.metrics.pf,
                         c.vs_gt.pipe, c.vs_gt.pipf, c.metrics.trips));
  }

  if (!options.trace) {
    LayerMap e2e;
    e2e["setup_s"] = Median(setup.samples());
    e2e["op_wall_s"] = assembled_s;
    e2e["sim_taxi_slots_per_s"] =
        taxis * slots_per_comparison / e2e["op_wall_s"];
    e2e["op_cpu_s"] = Percentile(untraced_cpu_s, kOpPercentile);
    e2e["peak_rss_mb"] = Median(peak_rss_mb);
    e2e["pe_cny_per_h"] = pe;
    FillMetrics(EndToEndSchema(), e2e, &result);
    return result;
  }

  LayerMap layers = MedianMap(traced_layers);
  for (const auto& [k, v] : setup_layers) layers[k] = v;
  layers["trace.overhead_pct"] =
      100.0 * (AssembledComparisonSeconds(fastest_traced) / assembled_s - 1.0);
  FillMetrics(PerLayerSchema(), layers, &result);

  const LayerMap& table = MedianRep(traced_layers, "x.wall_s");
  const double wall = Get(table, "x.wall_s");
  report.push_back(Fmt("where the wall-clock goes (train_eval, the median of "
                       "%zu traced comparisons; trace.overhead_pct %.2f)",
                       traced_s.size(), Get(layers, "trace.overhead_pct")));
  report.push_back(ShareLine(2, "comparison", wall, wall));
  const double gt_cell = Get(table, "x.gt_cell_s");
  const double fanout = Get(table, "x.fanout_s");
  report.push_back(ShareLine(4, "gt cell (serial)", gt_cell, wall));
  report.push_back(ShareLine(4, "method fan-out", fanout, wall));
  report.push_back(
      ShareLine(4, "unattributed", wall - gt_cell - fanout, wall));
  report.push_back(Fmt("  per method cell (s; share of the cell); cells run "
                       "concurrently, so the slowest sets the fan-out"));
  for (PolicyKind kind : FairMoveSystem::AllMethods()) {
    const std::string k = MethodKey(kind);
    const double method = Get(table, "core.method_s." + k);
    report.push_back(ShareLine(4, fairmove::PolicyKindName(kind), method,
                               method));
    const double create = Get(table, "x.create_s." + k);
    const double begin = Get(table, "x.begin_s." + k);
    const double decide = Get(table, "x.decide_s." + k);
    const double learn = Get(table, "x.learn_s." + k);
    const double other = Get(table, "core.episode_other_s." + k);
    const double metrics = Get(table, "x.metrics_s." + k);
    report.push_back(ShareLine(6, "replica + policy", create, method));
    report.push_back(ShareLine(6, "rl.begin_episode", begin, method));
    report.push_back(ShareLine(6, "rl.decide", decide, method));
    report.push_back(ShareLine(6, "rl.learn", learn, method));
    report.push_back(ShareLine(6, "sim step + trainer", other, method));
    report.push_back(ShareLine(6, "metrics", metrics, method));
    report.push_back(ShareLine(
        6, "unattributed",
        method - create - begin - decide - learn - other - metrics, method));
  }
  return result;
}

// --- day_gt and dispatch_small ----------------------------------------------

struct DayBlock {
  std::vector<double> slot_s;       // per Step(), decisions included
  std::vector<double> step_self_s;  // traced: Step() minus nested decide
  std::vector<double> day_s;        // stepping wall per simulated day
  std::vector<double> day_cpu_s;    // process CPU per simulated day
  FleetMetrics last;                // after the block's last day
  LayerMap layers;                  // traced only
};

/// One Reset() followed by kBlockDays consecutive days stepped one slot at
/// a time, each day's outputs checked; traced blocks wrap the policy.
DayBlock RunDayBlock(FairMoveSystem& system, PolicyKind kind,
                     uint64_t block_seed, bool traced, Outcome* outcome,
                     Digest* digest) {
  DayBlock out;
  Simulator& sim = system.sim();
  std::unique_ptr<fairmove::DisplacementPolicy> policy =
      fairmove::MakePolicy(kind, sim, kPolicySeed);
  TimedPolicy* timed = nullptr;
  if (traced) {
    auto wrapped = std::make_unique<TimedPolicy>(std::move(policy));
    timed = wrapped.get();
    policy = std::move(wrapped);
  }
  ThreadPool::SetTimingEnabled(traced);
  const PoolStats pool0 = GlobalPool().stats();
  const Clock::time_point block0 = Clock::now();
  Clock::time_point t = Clock::now();
  sim.Reset(block_seed);
  policy->SetTraining(false);
  policy->BeginEpisode(sim);
  const double reset_s = SecondsSince(t);
  double check_s = 0.0;
  out.slot_s.reserve(static_cast<size_t>(kBlockDays) * fairmove::kSlotsPerDay);
  for (int day = 0; day < kBlockDays; ++day) {
    const double cpu0 = ProcessCpuSeconds();
    const Clock::time_point day0 = Clock::now();
    for (int slot = 0; slot < fairmove::kSlotsPerDay; ++slot) {
      const double decide_before = timed ? timed->times().decide_s : 0.0;
      const Clock::time_point s0 = Clock::now();
      sim.Step(policy.get());
      const double dt = SecondsSince(s0);
      out.slot_s.push_back(dt);
      if (timed) {
        out.step_self_s.push_back(dt -
                                  (timed->times().decide_s - decide_before));
      }
    }
    out.day_s.push_back(SecondsSince(day0));
    out.day_cpu_s.push_back(ProcessCpuSeconds() - cpu0);
    t = Clock::now();
    out.last = fairmove::ComputeFleetMetrics(sim);
    const std::string error = CheckFleetMetrics(out.last, sim.num_taxis());
    outcome->Op(error.empty() ? error : Fmt("day %d: %s", day, error.c_str()));
    digest->AddValue(FleetMetricsDigest(out.last));
    check_s += SecondsSince(t);
  }
  const double block_s = SecondsSince(block0);
  if (!traced) return out;

  const PoolStats pool1 = GlobalPool().stats();
  const PolicyTimes& times = timed->times();
  LayerMap& layers = out.layers;
  double step_self = 0.0;
  for (double s : out.step_self_s) step_self += s;
  double stepping = 0.0;
  for (double s : out.day_s) stepping += s;
  layers["sim.steps"] = static_cast<double>(out.slot_s.size());
  layers["sim.step_self_s"] = step_self;
  layers["sim.step_self_us_p50"] = 1e6 * Median(out.step_self_s);
  layers["rl.decide_s"] = times.decide_s;
  layers["rl.decide_calls"] = static_cast<double>(times.decide_calls);
  layers["rl.decide_rows"] = static_cast<double>(times.decide_rows);
  layers["rl.decide_ns_per_row"] =
      times.decide_rows > 0
          ? 1e9 * times.decide_s / static_cast<double>(times.decide_rows)
          : 0.0;
  layers["rl.begin_episode_s"] = times.begin_s;
  layers["rl.begin_episode_calls"] = static_cast<double>(times.begin_calls);
  AddPoolDelta(pool0, pool1, static_cast<double>(out.slot_s.size()), &layers);
  layers["x.block_s"] = block_s;
  layers["x.stepping_s"] = stepping;
  layers["x.reset_s"] = reset_s - times.begin_s;
  layers["x.check_s"] = check_s;
  return out;
}

Result RunDayWorkload(const RunOptions& options, PolicyKind kind) {
  Result result;
  Outcome outcome;
  const FairMoveConfig config = WorkloadConfig(options.workload, options.seed);
  const uint64_t block_seed = fairmove::DeriveSeed(options.seed, 4, 0);
  SetupMeter setup(config, [&](FairMoveSystem& system) {
        // The policy and the lazily grown simulator scratch are part of
        // what a user waits for before the first timed slot.
        Simulator& sim = system.sim();
        auto policy = fairmove::MakePolicy(kind, sim, kPolicySeed);
        policy->SetTraining(false);
        sim.Reset(block_seed);
        policy->BeginEpisode(sim);
        for (int slot = 0; slot < kWarmupSlots; ++slot) sim.Step(policy.get());
      });
  std::unique_ptr<FairMoveSystem> owned = InitialSetup(&setup);
  LayerMap setup_layers;
  std::string error;
  if (owned != nullptr && options.trace) {
    setup_layers = TimeBuilders(config, &error);
  }
  if (owned == nullptr || !error.empty()) {
    outcome.Note(owned == nullptr ? setup.error() : error);
    outcome.Fill(&result);
    return result;
  }
  FairMoveSystem& system = *owned;
  const int taxis = system.sim().num_taxis();

  std::vector<double> slot_s, day_s, day_cpu_s;
  // Fastest Step() seen at each slot position of the (identical) blocks.
  FastestPerPosition best_slot_s, best_traced_slot_s;
  auto best_day_s = [](const FastestPerPosition& best) {
    return best.Sum() / kBlockDays;
  };
  std::vector<LayerMap> traced_layers;
  FleetMetrics last;
  const Clock::time_point start = Clock::now();
  int untraced_blocks = 0;
  std::vector<double> peak_rss_mb;
  for (int rep = 0;; ++rep) {
    const bool traced_rep = options.trace && rep % 2 == 1;
    Digest digest;
    StartPeakRssWindow();
    DayBlock block = RunDayBlock(system, kind, block_seed, traced_rep,
                                 &outcome, &digest);
    if (!traced_rep) peak_rss_mb.push_back(PeakRssMb());
    outcome.CheckDigest(digest.value(), traced_rep ? "traced block" : "block");
    if (!(traced_rep ? best_traced_slot_s : best_slot_s).Add(block.slot_s)) {
      outcome.Note("slot count changed between blocks");
    }
    if (traced_rep) {
      traced_layers.push_back(std::move(block.layers));
    } else {
      ++untraced_blocks;
      slot_s.insert(slot_s.end(), block.slot_s.begin(), block.slot_s.end());
      day_s.insert(day_s.end(), block.day_s.begin(), block.day_s.end());
      day_cpu_s.insert(day_cpu_s.end(), block.day_cpu_s.begin(),
                       block.day_cpu_s.end());
      last = std::move(block.last);
    }
    const bool enough = untraced_blocks > 0 &&
                        (!options.trace || !traced_layers.empty());
    if (enough && SecondsSince(start) >= options.seconds) break;
    ReleaseFreedHeap();
    setup.Between(SecondsSince(start));
  }
  ThreadPool::SetTimingEnabled(false);
  if (!setup.error().empty()) outcome.Note(setup.error());

  outcome.Fill(&result);
  std::vector<std::string>& report = result.report;
  report.push_back(Fmt("%s: %s policy, %d taxis, %d regions, %d stations, "
                       "%d-day blocks from Reset(), seed %" PRIu64,
                       options.workload.c_str(), fairmove::PolicyKindName(kind),
                       taxis, system.city().num_regions(),
                       system.city().num_stations(), kBlockDays, options.seed));
  report.push_back(SummaryLine("setup_s", "s", setup.samples()));
  std::vector<double> slot_ms;
  for (double s : slot_s) slot_ms.push_back(1e3 * s);
  report.push_back(SummaryLine("slot_ms", "ms", slot_ms));
  const Summary slots = Summarize(slot_ms);
  report.push_back(Fmt("  %-22s %-6s %.6g", "slot_p50_ms", "ms", slots.median));
  if (slots.tail_p >= 0.0) {
    report.push_back(Fmt("  %-22s %-6s %.6g  (p%g; %zu slots)", "slot_p99_ms",
                         "ms", slots.tail, slots.tail_p, slots.n));
  }
  report.push_back(SummaryLine("day_s", "s", day_s));
  report.push_back(SummaryLine("day_cpu_s", "s", day_cpu_s));
  report.push_back(SummaryLine("peak_rss_mb", "MB", peak_rss_mb));
  report.push_back(Fmt("  %-22s %-6s %.6g  (fastest of %d blocks per slot)",
                       "day_assembled_s", "s", best_day_s(best_slot_s),
                       untraced_blocks));
  report.push_back(Fmt("  fleet after %d days: PE %.4f CNY/h, PF %.4f, "
                       "trips %" PRId64 ", expired %" PRId64,
                       kBlockDays, last.pe.Mean(), last.pf, last.trips,
                       last.expired_requests));

  if (!options.trace) {
    LayerMap e2e;
    e2e["setup_s"] = Median(setup.samples());
    e2e["op_wall_s"] = best_day_s(best_slot_s);
    e2e["sim_taxi_slots_per_s"] = static_cast<double>(taxis) *
                                  fairmove::kSlotsPerDay / e2e["op_wall_s"];
    e2e["op_cpu_s"] = Percentile(day_cpu_s, kOpPercentile);
    e2e["peak_rss_mb"] = Median(peak_rss_mb);
    e2e["pe_cny_per_h"] = last.pe.Mean();
    FillMetrics(EndToEndSchema(), e2e, &result);
    return result;
  }

  LayerMap layers = MedianMap(traced_layers);
  for (const auto& [k, v] : setup_layers) layers[k] = v;
  layers["trace.overhead_pct"] =
      100.0 * (best_day_s(best_traced_slot_s) / best_day_s(best_slot_s) - 1.0);
  FillMetrics(PerLayerSchema(), layers, &result);

  const LayerMap& table = MedianRep(traced_layers, "x.block_s");
  const double block = Get(table, "x.block_s");
  const double step_self = Get(table, "sim.step_self_s");
  const double decide = Get(table, "rl.decide_s");
  const double begin = Get(table, "rl.begin_episode_s");
  const double reset = Get(table, "x.reset_s");
  const double check = Get(table, "x.check_s");
  report.push_back(Fmt("where the wall-clock goes (%s, the median of %zu "
                       "traced blocks; trace.overhead_pct %.2f)",
                       options.workload.c_str(), traced_layers.size(),
                       Get(layers, "trace.overhead_pct")));
  report.push_back(ShareLine(2, Fmt("%d-day block", kBlockDays), block, block));
  report.push_back(ShareLine(4, "sim.step (self)", step_self, block));
  report.push_back(ShareLine(4, "rl.decide", decide, block));
  report.push_back(ShareLine(4, "sim.reset", reset, block));
  report.push_back(ShareLine(4, "rl.begin_episode", begin, block));
  report.push_back(ShareLine(4, "output checks", check, block));
  report.push_back(ShareLine(
      4, "unattributed", block - step_self - decide - reset - begin - check,
      block));
  return result;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"train_eval", "day_gt",
                                                  "dispatch_small"};
  return kNames;
}

Result RunWorkload(const RunOptions& options) {
  if (options.workload == "train_eval") return RunTrainEval(options);
  if (options.workload == "day_gt") {
    return RunDayWorkload(options, PolicyKind::kGroundTruth);
  }
  return RunDayWorkload(options, PolicyKind::kFairMove);
}

}  // namespace e2ebench
