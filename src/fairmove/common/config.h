#ifndef FAIRMOVE_COMMON_CONFIG_H_
#define FAIRMOVE_COMMON_CONFIG_H_

#include <cstdint>
#include <string>

#include "fairmove/common/status.h"

namespace fairmove {

/// Environment-variable overrides shared by all bench/example binaries:
///   FAIRMOVE_SCALE     — fleet/city scale factor in (0, 1]   (default varies)
///   FAIRMOVE_EPISODES  — training episodes for learned policies
///   FAIRMOVE_SEED      — master RNG seed
///   FAIRMOVE_DAYS      — evaluation horizon in days
///   FAIRMOVE_THREADS   — execution-layer thread count (>= 1; 1 = exact
///                        serial path, unset = hardware concurrency)
///   FAIRMOVE_CHECKPOINT_DIR    — directory for durable training
///                        checkpoints (non-empty path; unset = off)
///   FAIRMOVE_CHECKPOINT_EVERY  — checkpoint every N episodes (>= 1)
///   FAIRMOVE_CHECKPOINT_RETAIN — retained checkpoint depth (>= 1)
/// The observability knobs (FAIRMOVE_TELEMETRY, _PROFILE, _METRICS_EXPORT,
/// _STALL_MS, _FLIGHT, _FLIGHT_EVENTS, _FLIGHT_DUMP_DIR) are not here: the
/// obs layer parses them itself, once (ParseObsKnobs in obs/knobs.h).
/// Unset variables leave the provided default untouched; malformed values
/// return InvalidArgument so a typo fails loudly instead of silently running
/// the wrong experiment.
struct EnvOverrides {
  double scale = 1.0;
  int episodes = 0;
  uint64_t seed = 0;
  int days = 0;
  /// 0 = unset (the pool sizes itself from hardware concurrency).
  int threads = 0;
  /// Empty = checkpointing off.
  std::string checkpoint_dir;
  int checkpoint_every = 1;
  int checkpoint_retain = 3;

  /// Reads the FAIRMOVE_* variables, using the current field values as
  /// defaults.
  Status LoadFromEnv();
};

/// Parses helpers usable for any env/CLI string. Return InvalidArgument on
/// malformed input; never abort.
StatusOr<double> ParseDouble(const std::string& text);
StatusOr<int64_t> ParseInt(const std::string& text);

}  // namespace fairmove

#endif  // FAIRMOVE_COMMON_CONFIG_H_
