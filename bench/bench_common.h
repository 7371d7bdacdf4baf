// Shared helpers for the paper-reproduction bench harnesses.
#ifndef HDKP2P_BENCH_BENCH_COMMON_H_
#define HDKP2P_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "engine/experiment.h"
#include "engine/fingerprint.h"

namespace hdk::bench {

// The determinism-asserting fingerprints (shared with the test suite).
using engine::FingerprintBatch;
using engine::FingerprintContents;
using engine::FingerprintTraffic;

/// True when HDKP2P_BENCH_SCALE=tiny selects the smoke-test scale.
inline bool TinyScale() {
  const char* scale = std::getenv("HDKP2P_BENCH_SCALE");
  return scale != nullptr && std::strcmp(scale, "tiny") == 0;
}

/// The scale name the benches print and write into their JSON.
inline const char* ScaleName() { return TinyScale() ? "tiny" : "default"; }

/// Selects the experiment scale: HDKP2P_BENCH_SCALE=tiny for smoke runs,
/// anything else (or unset) for the scaled-default reproduction.
/// HDKP2P_THREADS sets the worker threads per engine (0/unset = hardware
/// concurrency, 1 = serial; results identical).
inline engine::ExperimentSetup SelectSetup() {
  SetLogLevel(LogLevel::kWarning);
  engine::ExperimentSetup setup = TinyScale()
                                      ? engine::ExperimentSetup::Tiny()
                                      : engine::ExperimentSetup::ScaledDefault();
  if (const char* threads = std::getenv("HDKP2P_THREADS")) {
    setup.num_threads = static_cast<size_t>(std::strtoul(threads, nullptr, 10));
  }
  return setup;
}

/// Thread counts of a scaling sweep: the comma list in `env_var`, or
/// "1,2,4,8" when unset. Thread count 1 always comes first, because it
/// anchors the speedups and the serial-identity checks.
inline std::vector<size_t> ThreadSweep(const char* env_var) {
  const char* env = std::getenv(env_var);
  std::string spec = env != nullptr ? env : "1,2,4,8";
  std::vector<size_t> sweep;
  for (char* tok = std::strtok(spec.data(), ","); tok != nullptr;
       tok = std::strtok(nullptr, ",")) {
    const size_t n = std::strtoul(tok, nullptr, 10);
    if (n >= 1) sweep.push_back(n);
  }
  if (sweep.empty() || sweep.front() != 1) sweep.insert(sweep.begin(), 1);
  return sweep;
}

/// The q-quantile (0..1) of `values` by nearest rank; sorts in place.
template <typename T>
double Percentile(std::vector<T>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t idx = std::min(
      values.size() - 1,
      static_cast<size_t>(q * static_cast<double>(values.size())));
  return static_cast<double>(values[idx]);
}

/// Writes the `"host"` member every BENCH_*.json carries: hardware
/// threads, compiler and CMake build type (HDKP2P_BUILD_TYPE, defined by
/// bench/CMakeLists.txt) of the measuring binary.
inline void WriteHostJson(std::FILE* out) {
#ifdef __clang__
  const char* compiler = "clang " __clang_version__;
#else
  const char* compiler = "g++ " __VERSION__;
#endif
  std::fprintf(out,
               "  \"host\": {\"nproc\": %zu, \"compiler\": \"%s\", "
               "\"build_type\": \"%s\"},\n",
               ThreadPool::HardwareThreads(), compiler, HDKP2P_BUILD_TYPE);
}

/// Prints the standard bench banner.
inline void Banner(const char* experiment, const char* paper_summary) {
  std::printf("==============================================================="
              "=================\n");
  std::printf("%s\n", experiment);
  std::printf("Paper: %s\n", paper_summary);
  std::printf("==============================================================="
              "=================\n");
}

/// Prints the scaled-setup footprint so readers can relate the numbers to
/// the paper's absolute scale.
inline void PrintSetup(const engine::ExperimentSetup& setup) {
  std::printf("setup: peers %u..%u (step %u), docs/peer %u, "
              "DFmax {%llu, %llu}, Ff %llu, w 20, smax 3\n",
              setup.initial_peers, setup.max_peers, setup.peer_step,
              setup.docs_per_peer,
              static_cast<unsigned long long>(setup.DfMaxLow()),
              static_cast<unsigned long long>(setup.DfMaxHigh()),
              static_cast<unsigned long long>(setup.DeriveFf()));
  std::printf("(paper: peers 4..28, 5000 docs/peer, DFmax {400,500}, "
              "Ff 100000 — thresholds scaled, see README \"Scaling\")\n\n");
}

}  // namespace hdk::bench

#endif  // HDKP2P_BENCH_BENCH_COMMON_H_
