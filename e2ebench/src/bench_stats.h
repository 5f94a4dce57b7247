#ifndef E2EBENCH_BENCH_STATS_H_
#define E2EBENCH_BENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fairmove/core/metrics.h"

namespace e2ebench {

/// Linear-interpolated percentile (p in [0, 100]) of `values`, which need
/// not be sorted. Requires a non-empty input.
double Percentile(std::vector<double> values, double p);

double Median(const std::vector<double>& values);

/// The highest percentile of {50, 90, 99, 99.9, 99.99} that leaves at least
/// 10 of `n` samples beyond it, or -1 when even the median does not (n < 20).
/// Reporting that percentile keeps a tail figure from resting on one or two
/// samples.
double TailPercentile(size_t n);

/// Median, quartiles and the tail percentile of a sample of timings.
struct Summary {
  size_t n = 0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double tail_p = -1.0;  // TailPercentile(n)
  double tail = 0.0;     // value at tail_p (0 when tail_p < 0)
};
Summary Summarize(const std::vector<double>& values);

/// The fastest time seen at each position of a sequence that every
/// repetition repeats exactly (the slots of identical day blocks, the
/// segments of a method cell). Other tenants of a shared machine slow it
/// for stretches of seconds; a position's fastest sample is the one least
/// disturbed, so the sum is steadier than any whole repetition's time.
class FastestPerPosition {
 public:
  /// Folds in one repetition; false (and ignored) when its length differs
  /// from the first one's.
  bool Add(const std::vector<double>& sample);
  /// Sum over positions of the fastest sample (0 before any Add).
  double Sum() const;
  int repetitions() const { return repetitions_; }

 private:
  std::vector<double> best_;
  int repetitions_ = 0;
};

/// Makespan of `durations` run on `lanes` lanes, each lane taking the next
/// index in order as soon as it is free: how ThreadPool::ParallelFor hands
/// out the indices of a region.
double ListScheduleMakespan(const std::vector<double>& durations, int lanes);

/// 64-bit FNV-1a over raw bytes.
class Digest {
 public:
  void Add(const void* data, size_t size);
  template <typename T>
  void AddValue(const T& v) {
    Add(&v, sizeof(v));
  }
  void AddString(const std::string& s);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

/// Digest of every scalar of `m` plus its raw per-taxi PE sample: two runs
/// that agree here produced the same fleet outcome bit for bit.
uint64_t FleetMetricsDigest(const fairmove::FleetMetrics& m);

/// Output checks of one simulated run: one finite PE sample per taxi, and
/// trips + expired requests never exceed the requests spawned. Returns an
/// empty string when every check holds, otherwise what failed.
std::string CheckFleetMetrics(const fairmove::FleetMetrics& m,
                              int num_taxis);

}  // namespace e2ebench

#endif  // E2EBENCH_BENCH_STATS_H_
