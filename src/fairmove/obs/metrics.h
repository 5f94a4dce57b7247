#ifndef FAIRMOVE_OBS_METRICS_H_
#define FAIRMOVE_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace fairmove {

/// Process-wide registry of named event counters (fault applications,
/// divergence rollbacks, checkpoint rejects and resumes, stalls). Count()
/// takes an internal mutex and may be issued from any thread; it is meant
/// for rare events, not per-taxi hot loops. Latency distributions live in
/// LatencyRegistry (obs/latency.h), fed by FM_SPAN.
///
/// Everything here is observational: no RNG, no effect on simulation state.
class MetricsRegistry {
 public:
  void Count(const std::string& name, int64_t delta = 1);

  /// Name-sorted copy of every counter.
  std::map<std::string, int64_t> Counters() const;

  /// Deterministic (name-sorted) JSON rendering: `{"counters":{...}}`.
  std::string ToJson() const;

  /// Drops every counter (tests).
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, int64_t> counters_;
};

/// The process-wide registry every instrumented layer reports into.
MetricsRegistry& Metrics();

}  // namespace fairmove

#endif  // FAIRMOVE_OBS_METRICS_H_
