// The benchmark's workloads. Every workload runs the whole engine
// lifecycle — build, queries, save/load, churn under faults — so that
// every end-to-end metric exists on every workload; each spends its
// measured window on a different part of it (see README.md).
#ifndef HDKBENCH_WORKLOADS_H_
#define HDKBENCH_WORKLOADS_H_

#include <string_view>

#include "run.h"

namespace hdkbench {

/// Runs `run.settings.workload` (which must satisfy IsWorkload) and fills
/// run.metrics with the end-to-end metrics, or with the per-layer metrics
/// when the run is traced.
void RunWorkload(Run& run);

/// True for a workload name RunWorkload accepts.
bool IsWorkload(std::string_view name);

}  // namespace hdkbench

#endif  // HDKBENCH_WORKLOADS_H_
