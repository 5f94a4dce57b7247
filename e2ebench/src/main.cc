// End-to-end benchmark driver. Runs one workload and prints a human-readable
// report followed, on the last line, by one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//
//   e2ebench --workload <train_eval|day_gt|dispatch_small> --seed <n>
//            --seconds <s> --trace <0|1> [--source-id <id>]
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, from a run that alternates untraced and traced
// repetitions. e2ebench/run.py builds this binary and runs it.
#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "fairmove/common/parallel.h"
#include "fairmove/nn/simd.h"
#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--source-id <id>]\nworkloads:");
  for (const std::string& name : e2ebench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  e2ebench::RunOptions options;
  std::string source_id = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     std::isfinite(options.seconds) && options.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (flag == "--source-id") {
      source_id = value;
    } else {
      Usage();
      return 2;
    }
  }
  bool known = false;
  for (const std::string& name : e2ebench::WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace || !known) {
    Usage();
    return 2;
  }

  const char* threads_env = std::getenv("FAIRMOVE_THREADS");
  std::printf(
      "fingerprint {\"nproc\": %d, \"fairmove_threads\": %s, "
      "\"pool_threads\": %d, \"simd\": %s, \"build_type\": %s, "
      "\"compiler\": %s, \"source\": %s}\n",
      AvailableCpus(),
      JsonString(threads_env != nullptr ? threads_env : "unset").c_str(),
      fairmove::EffectiveThreadCount(),
      JsonString(fairmove::simd::kIsaName).c_str(),
      JsonString(E2EBENCH_BUILD_TYPE).c_str(), JsonString(__VERSION__).c_str(),
      JsonString(source_id).c_str());

  const e2ebench::Result result = e2ebench::RunWorkload(options);

  for (const std::string& line : result.report) {
    std::printf("%s\n", line.c_str());
  }
  bool finite = true;
  for (const e2ebench::Metric& m : result.metrics) {
    finite = finite && std::isfinite(m.value);
    std::printf("  %-34s %-8s %.10g\n", m.name.c_str(), m.unit.c_str(),
                m.value);
  }
  const bool correct = result.errors.empty() && result.failed == 0 &&
                       result.attempted > 0 && finite;
  const double failed_pct =
      result.attempted > 0 ? 100.0 * static_cast<double>(result.failed) /
                                 static_cast<double>(result.attempted)
                           : 100.0;
  std::printf("  %-34s %-8s %.6g  (%" PRId64 " of %" PRId64 " operations)\n",
              "failed_ops_pct", "%", failed_pct, result.failed,
              result.attempted);
  std::printf("digest %016" PRIx64 "\n", result.digest);
  for (const std::string& error : result.errors) {
    std::printf("error: %s\n", error.c_str());
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " +
          std::to_string(std::max<int64_t>(1, result.attempted));
  json += ", \"failed\": " +
          std::to_string(result.attempted > 0 ? result.failed : 1);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const e2ebench::Metric& m = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) json += ", ";
    json += JsonString(m.name) + ": {\"value\": " + value +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
