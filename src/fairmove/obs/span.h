#ifndef FAIRMOVE_OBS_SPAN_H_
#define FAIRMOVE_OBS_SPAN_H_

#include <cstdint>
#include <string>

#include "fairmove/obs/flight_recorder.h"

namespace fairmove {

class LatencyRecorder;
struct SpanNode;

/// Wall-clock profiler built from scoped spans. Each thread owns a private
/// span tree (nodes keyed by span name, nested by dynamic scope), so a
/// profiled span adds an unsynchronised map lookup to the two clock reads
/// every span takes. Report time merges every thread's tree by name path
/// and renders the aggregate with per-span count / total / max.
///
/// Off by default; enable with FAIRMOVE_PROFILE=1 or SetEnabled(true).
/// Reports are meant for run end — after parallel regions have completed,
/// the pool's completion acquire/release gives the reporting thread a
/// consistent view of worker trees.
class Profiler {
 public:
  static bool enabled();
  static void SetEnabled(bool on);

  /// Human-readable indented tree; empty string when nothing was recorded.
  static std::string ReportText();
  /// `{"spans":[{name,count,total_ns,max_ns,children:[...]},...]}` with
  /// siblings name-sorted.
  static std::string ReportJson();

  /// Clears every thread's recorded spans (tests; callers must ensure no
  /// span is live on any thread).
  static void Reset();
};

/// One FM_SPAN site, built once per site from a function-local static:
/// the name plus its interned flight-recorder id and latency recorder.
struct SpanSite {
  explicit SpanSite(const char* span_name);
  const char* name;  // persistent (in practice a literal)
  uint16_t flight_name_id;
  LatencyRecorder* latency;
};

/// RAII timer for one dynamic scope. Use through FM_SPAN below. It reads
/// the clock once on entry and once on exit and feeds those two reads to
/// every consumer: the profiler's span tree (when enabled), begin/end
/// events in the flight recorder (when enabled, so the last moments before
/// a crash or stall show the span structure), and the site's always-on
/// LatencyRecorder (sliding-window tails for the metrics exporter).
class ScopedSpan {
 public:
  explicit ScopedSpan(const SpanSite& site);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const SpanSite& site_;
  SpanNode* node_ = nullptr;
  SpanNode* parent_ = nullptr;
  int64_t start_ns_ = 0;
  bool flight_ = false;
};

#define FM_SPAN_CONCAT_INNER(a, b) a##b
#define FM_SPAN_CONCAT(a, b) FM_SPAN_CONCAT_INNER(a, b)
/// Times the enclosing scope under `name` (a string literal): profiler
/// tree, flight-recorder begin/end, and the latency recorder `name`.
#define FM_SPAN(name)                                                     \
  static const ::fairmove::SpanSite FM_SPAN_CONCAT(fm_span_site_,         \
                                                   __LINE__)(name);       \
  ::fairmove::ScopedSpan FM_SPAN_CONCAT(fm_span_, __LINE__)(              \
      FM_SPAN_CONCAT(fm_span_site_, __LINE__))

}  // namespace fairmove

#endif  // FAIRMOVE_OBS_SPAN_H_
