#include "fairmove/obs/telemetry.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "fairmove/common/parallel.h"
#include "fairmove/obs/exporter.h"
#include "fairmove/obs/flight_recorder.h"
#include "fairmove/obs/knobs.h"
#include "fairmove/obs/latency.h"
#include "fairmove/obs/metrics.h"
#include "fairmove/obs/span.h"
#include "fairmove/obs/watchdog.h"

namespace fairmove {

namespace {

/// Queue-wait tap feeding the live latency registry. Installed once at hub
/// construction; only fired while ThreadPool timing is enabled.
void RecordQueueWaitLatency(int64_t wait_ns) {
  static LatencyRecorder& recorder = LatencyRegistry::Get("pool.queue_wait");
  recorder.Record(wait_ns);
}

std::string CompilerString() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string BuildTypeString() {
#if defined(FAIRMOVE_BUILD_TYPE)
  const std::string configured = FAIRMOVE_BUILD_TYPE;
  if (!configured.empty()) return configured;
#endif
#if defined(NDEBUG)
  return "release";
#else
  return "debug";
#endif
}

}  // namespace

Telemetry::Telemetry() {
  const ObsKnobs& knobs = GetObsKnobs();
  if (!knobs.telemetry_dir.empty()) {
    const Status status = EnableAt(knobs.telemetry_dir);
    FM_CHECK(status.ok()) << "FAIRMOVE_TELEMETRY=" << knobs.telemetry_dir
                          << ": " << status.ToString();
  }
  // Live observability services. These run regardless of the telemetry
  // streams — a resident server wants export and crash capture without
  // per-slot JSONL — and are all strictly observational.
  ThreadPool::SetQueueWaitObserver(&RecordQueueWaitLatency);
  std::string export_dir;
  if (knobs.metrics_export.has_value()) {
    const StatusOr<MetricsExporter*> exporter =
        MetricsExporter::Start(*knobs.metrics_export);
    FM_CHECK(exporter.ok()) << "FAIRMOVE_METRICS_EXPORT: "
                            << exporter.status().ToString();
    export_dir = (*exporter)->dir();
  }
  // Crash dumps land in the most specific directory configured:
  // FAIRMOVE_FLIGHT_DUMP_DIR > telemetry dir > export dir.
  std::string dump_dir = knobs.flight_dump_dir;
  if (dump_dir.empty()) dump_dir = enabled_ ? dir_ : export_dir;
  if (!dump_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dump_dir, ec);
    if (!ec) FlightRecorder::SetCrashDumpDir(dump_dir);
  }
  if (knobs.stall_ms > 0) {
    StallWatchdog::Start(knobs.stall_ms, dump_dir.empty() ? "." : dump_dir);
  }
}

Status Telemetry::EnableAt(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create telemetry dir '" + dir +
                           "': " + ec.message());
  }
  FM_RETURN_IF_ERROR(training_.Open(dir + "/training.jsonl"));
  FM_RETURN_IF_ERROR(sim_.Open(dir + "/sim.jsonl"));
  FM_RETURN_IF_ERROR(pool_.Open(dir + "/pool.jsonl"));
  dir_ = dir;
  enabled_ = true;
  manifest_ = RunManifest();
  manifest_.started_utc = Iso8601UtcNow();
  manifest_.threads = EffectiveThreadCount();
  manifest_.build_type = BuildTypeString();
  manifest_.compiler = CompilerString();
  manifest_.profiling = Profiler::enabled();
  // Queue-latency timestamps are only taken while someone is listening.
  ThreadPool::SetTimingEnabled(true);
  return Status::OK();
}

void Telemetry::Finalize() {
  if (!enabled_) return;
  manifest_.finished_utc = Iso8601UtcNow();
  manifest_.profiling = Profiler::enabled();
  const Status manifest_status = manifest_.WriteFile(dir_ + "/manifest.json");
  FM_CHECK(manifest_status.ok()) << manifest_status.ToString();
  std::ofstream metrics_out(dir_ + "/metrics.json",
                            std::ios::out | std::ios::trunc);
  if (metrics_out) metrics_out << Metrics().ToJson() << '\n';
  if (Profiler::enabled()) {
    std::ofstream profile_out(dir_ + "/profile.json",
                              std::ios::out | std::ios::trunc);
    if (profile_out) profile_out << Profiler::ReportJson() << '\n';
  }
}

Status Telemetry::EnableForTesting(const std::string& dir) {
  DisableForTesting();
  return EnableAt(dir);
}

void Telemetry::DisableForTesting() {
  enabled_ = false;
  dir_.clear();
  training_.Close();
  sim_.Close();
  pool_.Close();
  manifest_ = RunManifest();
  ThreadPool::SetTimingEnabled(false);
}

void FinalizeObservability() {
  // A profiling-only run must not construct the hub (and its services) at
  // exit, so the hub is consulted only when telemetry was asked for.
  if (!GetObsKnobs().telemetry_dir.empty() && Telemetry::Get().enabled()) {
    Telemetry& telemetry = Telemetry::Get();
    const PoolStats stats = GlobalPool().stats();
    JsonObject row;
    row.Set("kind", "pool")
        .Set("threads", GlobalPool().num_threads())
        .Set("regions", stats.regions)
        .Set("tasks", stats.tasks)
        .Set("queue_wait_ns_total", stats.queue_wait_ns_total)
        .Set("queue_wait_ns_max", stats.queue_wait_ns_max);
    telemetry.pool_stream().Write(row);
    telemetry.Finalize();
  }
  if (Profiler::enabled()) {
    const std::string tree = Profiler::ReportText();
    if (!tree.empty()) std::fputs(tree.c_str(), stdout);
  }
}

Telemetry& Telemetry::Get() {
  // Leaked like GlobalPool: worker threads may still consult enabled() while
  // static destructors run.
  static Telemetry* telemetry = new Telemetry();
  return *telemetry;
}

}  // namespace fairmove
