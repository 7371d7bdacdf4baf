// State of one benchmark run: the command-line settings and scale, the
// tracer, the metric sink, and the tally of attempted and failed
// operations.
#ifndef HDKBENCH_RUN_H_
#define HDKBENCH_RUN_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"

namespace hdkbench {

/// Command-line settings.
struct Settings {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".hdkbench";  // snapshot files and span dumps
};

/// Ordered metric sink: name, value, unit.
class Metrics {
 public:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  void Set(std::string name, double value, std::string unit) {
    entries_.push_back({std::move(name), value, std::move(unit)});
  }

  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// Attempted / failed operations. A failed check counts as a failed
/// operation and marks the run incorrect.
class Tally {
 public:
  /// Records one operation; returns `ok`.
  bool Op(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "hdkbench: FAILED operation: %s\n", what.c_str());
    }
    return ok;
  }

  /// Records `n` operations of which `failed` failed.
  void Ops(uint64_t n, uint64_t failed, const char* what) {
    attempted_ += n;
    failed_ += failed;
    if (failed > 0) {
      std::fprintf(stderr, "hdkbench: %llu of %llu %s failed\n",
                   static_cast<unsigned long long>(failed),
                   static_cast<unsigned long long>(n), what);
    }
  }

  /// Records one correctness check; returns `ok`.
  bool Check(bool ok, const std::string& what) {
    if (!ok) correct_ = false;
    return Op(ok, "check: " + what);
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return correct_ && failed_ == 0; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

struct Run {
  explicit Run(Settings s) : settings(std::move(s)), tracer(settings.trace) {}

  Settings settings;
  Tracer tracer;
  Metrics metrics;  // end-to-end metrics (untraced) or per-layer (traced)
  Tally tally;
};

}  // namespace hdkbench

#endif  // HDKBENCH_RUN_H_
