#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

/// One invocation of the benchmark: which workload, its input seed, how long
/// to measure, and whether this is the traced (per-layer) run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Result {
  /// Operations attempted and failed: one method cell per comparison on
  /// train_eval, one simulated day on the day workloads.
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Failures that are not one operation's (a digest that did not repeat,
  /// a set-up that did not build), plus the first few operation failures.
  std::vector<std::string> errors;
  /// Digest of the workload's outputs; every repetition in the run, traced
  /// or not, must reproduce it.
  uint64_t digest = 0;
  /// End-to-end metrics, or per-layer metrics when traced — always the full
  /// schema of the mode, in a fixed order.
  std::vector<Metric> metrics;
  /// Human-readable report: every metric with median, quartiles and sample
  /// count, and in the traced run the wall-clock breakdown.
  std::vector<std::string> report;
};

const std::vector<std::string>& WorkloadNames();

/// Runs one workload; never throws for an unknown workload name (the
/// caller validates it against WorkloadNames()).
Result RunWorkload(const RunOptions& options);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_
