#ifndef FAIRMOVE_OBS_KNOBS_H_
#define FAIRMOVE_OBS_KNOBS_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "fairmove/common/status.h"

namespace fairmove {

/// Parsed form of FAIRMOVE_METRICS_EXPORT=<dir>:<period_ms>. The period is
/// the last ':'-separated field so directory paths containing ':' still
/// parse; period must be in [10, 3600000].
struct ExporterOptions {
  std::string dir;
  int64_t period_ms = 1000;
};
StatusOr<ExporterOptions> ParseExportSpec(const std::string& spec);

/// The seven observability knobs, read from the environment in one place:
///   FAIRMOVE_TELEMETRY       — JSONL streams + manifest directory
///   FAIRMOVE_PROFILE         — "1" enables the span profiler, "0" disables
///   FAIRMOVE_METRICS_EXPORT  — <dir>:<period_ms> live metrics export
///   FAIRMOVE_STALL_MS        — stall watchdog budget, [100, 3600000] ms
///   FAIRMOVE_FLIGHT          — "0" disables the flight recorder, "1" enables
///   FAIRMOVE_FLIGHT_EVENTS   — per-thread ring capacity, [256, 1048576]
///   FAIRMOVE_FLIGHT_DUMP_DIR — crash/stall dump directory
/// An unset knob keeps the default below. A set knob must be well formed —
/// an empty value included is an error — so a typo fails loudly instead of
/// silently running without the observability it asked for.
struct ObsKnobs {
  std::string telemetry_dir;  // empty = telemetry off
  bool profile = false;
  std::optional<ExporterOptions> metrics_export;  // nullopt = export off
  int64_t stall_ms = 0;                           // 0 = watchdog off
  bool flight = true;
  int64_t flight_events = 4096;
  std::string flight_dump_dir;  // empty = most specific configured dir
};

/// Parses every knob through `lookup` (std::getenv in production; returns
/// nullptr for unset). InvalidArgument names the offending variable.
StatusOr<ObsKnobs> ParseObsKnobs(
    const std::function<const char*(const char*)>& lookup);

/// The process environment's knobs, parsed on first use; aborts on a
/// malformed value. When telemetry or profiling is on, the first call also
/// registers FinalizeObservability (obs/telemetry.h) with atexit, so every
/// binary — bench, example or tool — ends its run with complete artefacts.
const ObsKnobs& GetObsKnobs();

}  // namespace fairmove

#endif  // FAIRMOVE_OBS_KNOBS_H_
