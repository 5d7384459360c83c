// Benchmark driver binary:
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--baseline-records-per-s <x>] [--out-dir <dir>]
// Prints diagnostics on stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The metrics are the
// end-to-end ones with --trace 0 and the per-layer ones with --trace 1.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--baseline-records-per-s <x>] "
               "[--out-dir <dir>]\nworkloads:",
               why);
  for (const std::string& name : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      options.trace = std::string(value) == "1";
    } else if (flag == "--baseline-records-per-s") {
      options.baseline_records_per_s = std::strtod(value, &end);
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");

  perfbench::RunResult result;
  if (!perfbench::RunWorkload(options, &result)) {
    return Usage(("cannot run workload '" + options.workload + "'").c_str());
  }
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", error.c_str());
  }

  const auto& metrics = options.trace ? result.per_layer : result.end_to_end;
  std::string json = "{\"correct\": ";
  json += result.errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
