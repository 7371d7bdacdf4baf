#!/usr/bin/env bash
# Regenerates every committed BENCH_*.json at the repository root.
#
#   * BENCH_{paper,shard,faults,overload,churn,antientropy}.json: the
#     plain-main benches at the default scale, from a Release build in
#     build-release/.
#   * BENCH_hdkbench.json: for each hdkbench workload, the median and
#     quartiles of every end-to-end metric over seeds 1-5 (12 s runs).
#     Later changes diff their own hdkbench runs against it.
#
# Usage (from anywhere in the checkout):  tools/bench_all.sh
#
# About 15 minutes on 4 vCPUs, one process at a time (an hdkbench run peaks
# near 1 GB RSS). Run nothing else meanwhile: every timing shares the host.
# Exits non-zero as soon as a bench fails one of its own checks.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/build-release"
benches=(paper micro_shard micro_faults micro_overload micro_churn
         micro_antientropy)

cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=Release \
  -DHDKP2P_BUILD_TESTS=OFF -DHDKP2P_BUILD_EXAMPLES=OFF \
  -DHDKP2P_BUILD_TOOLS=OFF >&2
cmake --build "$build" -j "$(nproc)" \
  --target "${benches[@]/#/bench_}" >&2

# The benches write their JSON to the working directory. Every input is
# left at its default: the default scale and every thread count.
cd "$root"
unset HDKP2P_BENCH_SCALE HDKP2P_THREADS HDKP2P_SHARD_THREADS
for bench in "${benches[@]}"; do
  echo "== bench_$bench" >&2
  "$build/bench/bench_$bench"
done

echo "== hdkbench: 3 workloads x seeds 1-5" >&2
python3 - <<'EOF'
import json
import statistics
import subprocess
import sys

SEEDS = [1, 2, 3, 4, 5]
SECONDS = 12
summary = {"bench": "hdkbench", "seeds": SEEDS, "seconds": SECONDS,
           "workloads": {}}
for workload in ("serve", "churn", "cold-start"):
    runs = []
    for seed in SEEDS:
        print(f"-- {workload} seed {seed}", file=sys.stderr, flush=True)
        out = subprocess.run(
            [sys.executable, "hdkbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True).stdout
        lines = out.strip().splitlines()
        provenance = next(l for l in lines if l.startswith("provenance:"))
        summary["host"] = json.loads(provenance.split(":", 1)[1])
        runs.append(json.loads(lines[-1]))
    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        metrics[name] = {"unit": first["unit"], "median": median,
                         "q1": q1, "q3": q3}
    summary["workloads"][workload] = {
        "correct": all(run["correct"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }
for key in ("workload", "seed", "seconds", "trace"):
    summary["host"].pop(key)
with open("BENCH_hdkbench.json", "w") as out:
    json.dump(summary, out, indent=2)
    out.write("\n")
EOF
echo "wrote BENCH_hdkbench.json" >&2
