#include "bench_stats.h"

#include <algorithm>
#include <cmath>

#include "fairmove/common/macros.h"

namespace e2ebench {

double Percentile(std::vector<double> values, double p) {
  FM_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 50.0);
}

double TailPercentile(size_t n) {
  // Percentiles in units of 0.01%, so the "samples beyond" count is exact
  // integer arithmetic: n - ceil(n * k / 10000).
  static constexpr int64_t kLadder[] = {9999, 9990, 9900, 9000, 5000};
  const int64_t count = static_cast<int64_t>(n);
  for (int64_t k : kLadder) {
    const int64_t at_or_below = (count * k + 9999) / 10000;
    if (count - at_or_below >= 10) return static_cast<double>(k) / 100.0;
  }
  return -1.0;
}

Summary Summarize(const std::vector<double>& values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  s.median = Percentile(values, 50.0);
  s.q1 = Percentile(values, 25.0);
  s.q3 = Percentile(values, 75.0);
  s.tail_p = TailPercentile(values.size());
  if (s.tail_p >= 0.0) s.tail = Percentile(values, s.tail_p);
  return s;
}

bool FastestPerPosition::Add(const std::vector<double>& sample) {
  if (repetitions_ == 0) {
    best_ = sample;
  } else if (sample.size() != best_.size()) {
    return false;
  } else {
    for (size_t i = 0; i < best_.size(); ++i) {
      best_[i] = std::min(best_[i], sample[i]);
    }
  }
  ++repetitions_;
  return true;
}

double FastestPerPosition::Sum() const {
  double total = 0.0;
  for (double s : best_) total += s;
  return total;
}

double ListScheduleMakespan(const std::vector<double>& durations, int lanes) {
  FM_CHECK(lanes >= 1);
  std::vector<double> free_at(static_cast<size_t>(lanes), 0.0);
  double makespan = 0.0;
  for (double d : durations) {
    auto lane = std::min_element(free_at.begin(), free_at.end());
    *lane += d;
    makespan = std::max(makespan, *lane);
  }
  return makespan;
}

void Digest::Add(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h_ ^= bytes[i];
    h_ *= 1099511628211ull;
  }
}

void Digest::AddString(const std::string& s) {
  AddValue(s.size());
  Add(s.data(), s.size());
}

uint64_t FleetMetricsDigest(const fairmove::FleetMetrics& m) {
  Digest d;
  const std::vector<double>& pe = m.pe.values();
  d.AddValue(pe.size());
  d.Add(pe.data(), pe.size() * sizeof(double));
  for (double v : {m.pe_sum, m.pf, m.pe_gini, m.cruise_min, m.serve_min,
                   m.idle_min, m.charge_min, m.revenue_cny,
                   m.charge_cost_cny}) {
    d.AddValue(v);
  }
  for (int64_t v : {m.trips, m.charge_events, m.strandings, m.breakdowns,
                    m.fault_events, m.expired_requests, m.total_requests}) {
    d.AddValue(v);
  }
  return d.value();
}

std::string CheckFleetMetrics(const fairmove::FleetMetrics& m,
                              int num_taxis) {
  if (static_cast<int64_t>(m.pe.size()) != num_taxis) {
    return "PE samples " + std::to_string(m.pe.size()) + " != taxis " +
           std::to_string(num_taxis);
  }
  for (double v : m.pe.values()) {
    if (!std::isfinite(v)) return "non-finite PE sample";
  }
  if (m.trips < 0 || m.expired_requests < 0 ||
      m.trips + m.expired_requests > m.total_requests) {
    return "trips " + std::to_string(m.trips) + " + expired " +
           std::to_string(m.expired_requests) + " > requests " +
           std::to_string(m.total_requests);
  }
  return "";
}

}  // namespace e2ebench
