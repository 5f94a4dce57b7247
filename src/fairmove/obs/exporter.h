#ifndef FAIRMOVE_OBS_EXPORTER_H_
#define FAIRMOVE_OBS_EXPORTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "fairmove/common/status.h"
#include "fairmove/obs/jsonl.h"
#include "fairmove/obs/knobs.h"

namespace fairmove {

/// Periodic metrics exporter: every period it rotates the latency epoch,
/// snapshots the metrics registry and latency recorders, and publishes
///
///   metrics.prom  — Prometheus text exposition (atomically replaced)
///   export.json   — fairmove.export.v1 snapshot with freshness_utc /
///                   freshness_seq / epoch_id (atomically replaced)
///   windows.jsonl — one appended row per latency recorder per tick with
///                   the monotonic epoch id, last-epoch count and rate, and
///                   sliding-window p50/p90/p99/p999
///   flight.fmfr   — flight-recorder dump (atomically replaced, so the
///                   last completed export survives even SIGKILL)
///
/// Strictly read-only with respect to the simulation: it never touches RNG
/// or simulation state, and the registries it reads are designed for
/// concurrent read-while-write, so enabling export leaves every
/// simulation/bench output byte-identical (enforced by the §8 invariance
/// test at FAIRMOVE_THREADS 1 and 4).
class MetricsExporter {
 public:
  /// Starts the process-wide exporter (FAIRMOVE_METRICS_EXPORT reaches it
  /// through the telemetry hub) and creates `options.dir`. Idempotent:
  /// while the exporter runs, every call returns it unchanged, whatever
  /// `options` say; after Stop() the next call restarts the same instance
  /// on the new options. The instance lives for the whole process and is
  /// stopped at exit.
  static StatusOr<MetricsExporter*> Start(const ExporterOptions& options);

  /// Stops the export thread and writes one final snapshot. Idempotent.
  void Stop();

  /// One synchronous export tick (also what the thread runs).
  void Tick();

  uint64_t ticks() const { return seq_.load(std::memory_order_acquire); }
  const std::string& dir() const { return options_.dir; }

 private:
  MetricsExporter() = default;
  void Loop();

  ExporterOptions options_;
  JsonlWriter windows_;
  std::atomic<uint64_t> seq_{0};
  bool running_ = false;  // guarded by the process-wide lifecycle mutex
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  std::thread thread_;
};

/// Prometheus metric-name sanitisation: [a-zA-Z0-9_:] pass through, every
/// other byte becomes '_', and a leading digit gains a '_' prefix.
std::string PrometheusName(const std::string& name);

}  // namespace fairmove

#endif  // FAIRMOVE_OBS_EXPORTER_H_
