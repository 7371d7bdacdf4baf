// hdkbench: the repository benchmark. Runs one named workload with a
// workload seed and prints, as its last line, one JSON object with the
// correctness verdict, the operation tally and the metrics. See README.md.
//
//   hdkbench --workload serve|churn|cold-start --seed N --seconds S
//            --trace 0|1 [--work-dir DIR]
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>

#include "common/logging.h"
#include "phases.h"
#include "run.h"
#include "stats.h"
#include "workloads.h"

#ifndef HDKBENCH_BUILD_TYPE
#define HDKBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using hdkbench::Run;
using hdkbench::Settings;

void Usage() {
  std::fprintf(stderr,
               "usage: hdkbench --workload serve|churn|cold-start --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR]\n");
}

bool ParseUnsigned(const char* text, uint64_t* out) {
  const char* end = text + std::strlen(text);
  auto [ptr, ec] = std::from_chars(text, end, *out);
  return ec == std::errc() && ptr == end;
}

bool ParseArgs(int argc, char** argv, Settings* s) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      s->workload = value;
      have_workload = true;
    } else if (flag == "--work-dir") {
      s->work_dir = value;
    } else if (!ParseUnsigned(value, &n)) {
      return false;
    } else if (flag == "--seed") {
      s->seed = n;
    } else if (flag == "--seconds") {
      s->seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (n > 1) return false;
      s->trace = n == 1;
    } else {
      return false;
    }
  }
  return have_workload;
}

bool OptimizedBuild() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

void PrintProvenance(const Settings& s) {
  std::printf(
      "provenance: {\"nproc\": %u, \"compiler\": \"g++ %s\", "
      "\"build_type\": \"%s\", \"optimized\": %s, \"engine_threads\": %zu, "
      "\"peers\": %u, \"docs_per_peer\": %u, \"queries\": %u, "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.0f, "
      "\"trace\": %d}\n",
      std::thread::hardware_concurrency(), __VERSION__, HDKBENCH_BUILD_TYPE,
      OptimizedBuild() ? "true" : "false", hdkbench::EngineThreads(),
      hdkbench::kPeers, hdkbench::kDocsPerPeer, hdkbench::kQueries,
      s.workload.c_str(), static_cast<unsigned long long>(s.seed), s.seconds,
      s.trace ? 1 : 0);
  if (!OptimizedBuild()) {
    std::fprintf(stderr,
                 "hdkbench: WARNING: non-optimized build; timings are not "
                 "comparable\n");
  }
}

/// Shortest decimal form that reads back as exactly `value`.
std::string FormatNumber(double value) {
  char buffer[64];
  auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return ec == std::errc() ? std::string(buffer, ptr) : "0";
}

void PrintResult(Run& run) {
  for (const auto& metric : run.metrics.entries()) {
    run.tally.Check(std::isfinite(metric.value),
                    "metric " + metric.name + " is a finite number");
  }
  for (const auto& metric : run.metrics.entries()) {
    std::printf("  %-36s %16.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("operations: %llu attempted, %llu failed (share %g)\n",
              static_cast<unsigned long long>(run.tally.attempted()),
              static_cast<unsigned long long>(run.tally.failed()),
              hdkbench::FailureShare(run.tally.failed(),
                                     run.tally.attempted()));
  std::string line = "{\"correct\": ";
  line += run.tally.correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(run.tally.attempted());
  line += ", \"failed\": " + std::to_string(run.tally.failed());
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& metric : run.metrics.entries()) {
    if (!first) line += ", ";
    first = false;
    line += "\"" + metric.name + "\": {\"value\": " +
            FormatNumber(std::isfinite(metric.value) ? metric.value : 0.0) +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Settings settings;
  if (!ParseArgs(argc, argv, &settings) ||
      !hdkbench::IsWorkload(settings.workload)) {
    Usage();
    return 2;
  }
  hdk::SetLogLevel(hdk::LogLevel::kWarning);
  PrintProvenance(settings);

  Run run(settings);
  hdkbench::RunWorkload(run);

  if (run.tracer.enabled()) {
    std::error_code ec;
    std::filesystem::create_directories(settings.work_dir, ec);
    const std::string path = settings.work_dir + "/trace-" +
                             settings.workload + "-seed" +
                             std::to_string(settings.seed) + ".jsonl";
    if (run.tally.Op(run.tracer.WriteJsonLines(path), "write " + path)) {
      std::printf("spans: %zu written to %s\n", run.tracer.spans().size(),
                  path.c_str());
    }
  }
  PrintResult(run);
  std::fflush(stdout);
  return run.tally.correct() ? 0 : 1;
}
