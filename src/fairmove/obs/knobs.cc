#include "fairmove/obs/knobs.h"

#include <cstdlib>

#include "fairmove/common/config.h"
#include "fairmove/obs/flight_recorder.h"
#include "fairmove/obs/telemetry.h"
#include "fairmove/obs/watchdog.h"

namespace fairmove {

namespace {

constexpr int64_t kMinExportPeriodMs = 10;
constexpr int64_t kMaxExportPeriodMs = 3600000;

StatusOr<int64_t> ParseRange(const char* name, const std::string& text,
                             int64_t lo, int64_t hi) {
  const StatusOr<int64_t> v = ParseInt(text);
  if (!v.ok() || *v < lo || *v > hi) {
    return Status::InvalidArgument(
        std::string(name) + " must be an integer in [" + std::to_string(lo) +
        ", " + std::to_string(hi) + "], got '" + text + "'");
  }
  return *v;
}

StatusOr<bool> ParseSwitch(const char* name, const std::string& text) {
  if (text == "0" || text == "1") return text == "1";
  return Status::InvalidArgument(std::string(name) + " must be 0 or 1, got '" +
                                 text + "'");
}

}  // namespace

StatusOr<ExporterOptions> ParseExportSpec(const std::string& spec) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size()) {
    return Status::InvalidArgument(
        "metrics export spec must be <dir>:<period_ms>, got '" + spec + "'");
  }
  ExporterOptions options;
  options.dir = spec.substr(0, colon);
  FM_ASSIGN_OR_RETURN(options.period_ms,
                      ParseRange("metrics export period_ms",
                                 spec.substr(colon + 1), kMinExportPeriodMs,
                                 kMaxExportPeriodMs));
  return options;
}

StatusOr<ObsKnobs> ParseObsKnobs(
    const std::function<const char*(const char*)>& lookup) {
  // The one place each knob is looked up; set-but-empty is an error.
  auto take = [&](const char* name, std::string* out) -> Status {
    const char* v = lookup(name);
    if (v == nullptr) return Status::OK();
    if (v[0] == '\0') {
      return Status::InvalidArgument(std::string(name) +
                                     " is set but empty (unset it instead)");
    }
    *out = v;
    return Status::OK();
  };
  ObsKnobs knobs;
  std::string profile, spec, stall, flight, events;
  FM_RETURN_IF_ERROR(take("FAIRMOVE_TELEMETRY", &knobs.telemetry_dir));
  FM_RETURN_IF_ERROR(take("FAIRMOVE_PROFILE", &profile));
  FM_RETURN_IF_ERROR(take("FAIRMOVE_METRICS_EXPORT", &spec));
  FM_RETURN_IF_ERROR(take("FAIRMOVE_STALL_MS", &stall));
  FM_RETURN_IF_ERROR(take("FAIRMOVE_FLIGHT", &flight));
  FM_RETURN_IF_ERROR(take("FAIRMOVE_FLIGHT_EVENTS", &events));
  FM_RETURN_IF_ERROR(take("FAIRMOVE_FLIGHT_DUMP_DIR", &knobs.flight_dump_dir));
  if (!profile.empty()) {
    FM_ASSIGN_OR_RETURN(knobs.profile,
                        ParseSwitch("FAIRMOVE_PROFILE", profile));
  }
  if (!spec.empty()) {
    const StatusOr<ExporterOptions> options = ParseExportSpec(spec);
    if (!options.ok()) {
      return Status::InvalidArgument("FAIRMOVE_METRICS_EXPORT: " +
                                     options.status().message());
    }
    knobs.metrics_export = *options;
  }
  if (!stall.empty()) {
    FM_ASSIGN_OR_RETURN(knobs.stall_ms,
                        ParseRange("FAIRMOVE_STALL_MS", stall,
                                   StallWatchdog::kMinBudgetMs,
                                   StallWatchdog::kMaxBudgetMs));
  }
  if (!flight.empty()) {
    FM_ASSIGN_OR_RETURN(knobs.flight, ParseSwitch("FAIRMOVE_FLIGHT", flight));
  }
  if (!events.empty()) {
    FM_ASSIGN_OR_RETURN(knobs.flight_events,
                        ParseRange("FAIRMOVE_FLIGHT_EVENTS", events,
                                   FlightRecorder::kMinCapacity,
                                   FlightRecorder::kMaxCapacity));
  }
  return knobs;
}

const ObsKnobs& GetObsKnobs() {
  static const ObsKnobs* knobs = [] {
    StatusOr<ObsKnobs> parsed =
        ParseObsKnobs([](const char* name) { return std::getenv(name); });
    FM_CHECK(parsed.ok()) << "bad FAIRMOVE_* environment: "
                          << parsed.status().ToString();
    auto* result = new ObsKnobs(std::move(parsed).value());
    if (result->profile || !result->telemetry_dir.empty()) {
      std::atexit(&FinalizeObservability);
    }
    return result;
  }();
  return *knobs;
}

}  // namespace fairmove
