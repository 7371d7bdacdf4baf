// Fault-tolerance bench: query latency and recovery work under an
// unreliable transport.
//
// The fault-injection layer (src/net/fault.h) drops, delays, and
// dead-ends messages deterministically; the retrieval path answers with
// retry/backoff, replica failover and graceful degradation. This bench
// records what that costs and what it buys:
//
//   * a loss sweep {0, 0.1%, 1%, 5%} over one built engine: per-query
//     wall-clock p50/p99 plus the retry / failover / degraded counters —
//     the price of riding out an unreliable network,
//   * a dead-replica-holder scenario (replication = 2, one peer hard-
//     killed): EVERY query must fail over instead of degrading — the
//     bench fails if a single degraded response appears while a replica
//     survives,
//   * batch throughput on the faulty fan-out (replication = 2, 1% loss):
//     SearchBatch queries/s at 1 thread and at HDKP2P_THREADS threads —
//     the bench fails unless both batches fingerprint identically.
//
// Env knobs (see bench_common.h): HDKP2P_BENCH_SCALE=tiny,
// HDKP2P_THREADS.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/hash.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "engine/hdk_engine.h"
#include "engine/partition.h"
#include "net/fault.h"

namespace {

struct SweepPoint {
  double loss = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  unsigned long long retries = 0;
  unsigned long long failovers = 0;
  unsigned long long latency_ticks = 0;
  unsigned long long degraded = 0;
  unsigned long long keys_unreachable = 0;
};

/// Runs the whole query batch one query at a time (per-query wall clock)
/// and folds the failure-handling counters. Query origins rotate over
/// the peers, skipping `dead_origin` — a dead peer does not issue
/// queries (and could not receive the responses).
SweepPoint RunBatch(hdk::engine::HdkSearchEngine& engine,
                    const std::vector<hdk::corpus::Query>& queries,
                    size_t top_k,
                    hdk::PeerId dead_origin = hdk::kInvalidPeer) {
  SweepPoint point;
  std::vector<double> latencies;
  latencies.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto origin = static_cast<hdk::PeerId>(i % engine.num_peers());
    if (origin == dead_origin) {
      origin = static_cast<hdk::PeerId>((origin + 1) % engine.num_peers());
    }
    hdk::Stopwatch watch;
    auto response = engine.Search(queries[i].terms, top_k, origin);
    latencies.push_back(watch.ElapsedSeconds());
    point.retries += response.cost.retries;
    point.failovers += response.cost.failovers;
    point.latency_ticks += response.cost.latency_ticks;
    point.degraded += response.degraded ? 1 : 0;
    point.keys_unreachable += response.cost.keys_unreachable;
  }
  point.p50_ms = hdk::bench::Percentile(latencies, 0.50) * 1e3;
  point.p99_ms = hdk::bench::Percentile(latencies, 0.99) * 1e3;
  return point;
}

/// SearchBatch throughput of one freshly built engine.
struct BatchThroughput {
  size_t threads = 0;
  size_t queries = 0;        // per batch
  double qps = 0.0;          // median over the passes
  uint64_t fingerprint = 0;  // folded over the passes
};

// Each batch repeats the query set up to this many queries, so one pass
// runs long enough (~0.1 s serially) to time at either scale.
constexpr size_t kBatchQueries = 16384;
constexpr size_t kBatchPasses = 7;

hdk::Result<BatchThroughput> MeasureBatches(
    hdk::engine::EngineConfig config, size_t threads,
    const hdk::corpus::DocumentStore& store, uint64_t docs, uint32_t peers,
    const std::vector<hdk::corpus::Query>& queries, size_t top_k) {
  config.num_threads = threads;
  auto built = hdk::engine::HdkSearchEngine::Build(
      config, store, hdk::engine::SplitEvenly(docs, peers));
  if (!built.ok()) return built.status();
  auto engine = std::move(built).value();
  // Query-time faults, like the loss sweep.
  hdk::net::FaultPlan plan;
  plan.seed = 7;
  plan.loss = 0.01;
  HDK_RETURN_NOT_OK(engine->InstallFaultPlan(plan));

  std::vector<hdk::corpus::Query> batch;
  while (batch.size() < kBatchQueries) {
    batch.insert(batch.end(), queries.begin(), queries.end());
  }
  BatchThroughput out;
  out.threads = threads;
  out.queries = batch.size();
  std::vector<double> qps;
  for (size_t pass = 0; pass < kBatchPasses; ++pass) {
    hdk::Stopwatch watch;
    const auto response = engine->SearchBatch(batch, top_k);
    qps.push_back(static_cast<double>(batch.size()) / watch.ElapsedSeconds());
    out.fingerprint = hdk::HashCombine(
        out.fingerprint, hdk::bench::FingerprintBatch(response));
  }
  out.qps = hdk::bench::Percentile(qps, 0.5);
  return out;
}

}  // namespace

int main() {
  using namespace hdk;

  auto setup = bench::SelectSetup();
  bench::Banner(
      "micro_faults: query latency and recovery work under message loss",
      "retry/backoff + replica failover + graceful degradation over the "
      "deterministic fault-injection transport");
  bench::PrintSetup(setup);


  const uint32_t peers = setup.max_peers;
  const uint64_t docs = static_cast<uint64_t>(peers) * setup.docs_per_peer;
  engine::ExperimentContext ctx(setup);
  const corpus::DocumentStore& store = ctx.GrowTo(docs);
  const std::vector<corpus::Query> queries =
      ctx.MakeQueries(docs, setup.num_queries);

  engine::EngineConfig config = setup.MakeConfig(setup.DfMaxLow());

  std::printf("peers %u | docs %llu | %zu queries per sweep point\n\n", peers,
              static_cast<unsigned long long>(docs), queries.size());

  // One fault-free build; the sweep re-arms the injector per loss level
  // (query-time faults — the indexing-identity-under-loss guarantee has
  // its own tests).
  auto built = engine::HdkSearchEngine::Build(
      config, store, engine::SplitEvenly(docs, peers));
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  auto engine = std::move(built).value();

  const double kLossSweep[] = {0.0, 0.001, 0.01, 0.05};
  std::vector<SweepPoint> sweep;
  std::printf("%8s %10s %10s %10s %10s %10s %10s\n", "loss", "p50_ms",
              "p99_ms", "retries", "failovers", "degraded", "unreach");
  for (double loss : kLossSweep) {
    net::FaultPlan plan;
    plan.seed = 7;
    plan.loss = loss;
    if (Status st = engine->InstallFaultPlan(plan); !st.ok()) {
      std::fprintf(stderr, "install failed: %s\n", st.ToString().c_str());
      return 1;
    }
    SweepPoint point = RunBatch(*engine, queries, setup.top_k);
    point.loss = loss;
    std::printf("%8.3f %10.3f %10.3f %10llu %10llu %10llu %10llu\n", loss,
                point.p50_ms, point.p99_ms, point.retries, point.failovers,
                point.degraded, point.keys_unreachable);
    sweep.push_back(point);
  }
  engine.reset();

  // Dead replica holder: with replication = 2 every key survives one
  // peer death, so a hard-killed peer must cost failovers, never a
  // degraded response.
  engine::EngineConfig replicated = config;
  replicated.replication = 2;
  auto with_replicas = engine::HdkSearchEngine::Build(
      replicated, store, engine::SplitEvenly(docs, peers));
  if (!with_replicas.ok()) {
    std::fprintf(stderr, "replicated build failed: %s\n",
                 with_replicas.status().ToString().c_str());
    return 1;
  }
  const PeerId killed = peers / 2;
  (*with_replicas)->fault_injector().KillPeer(killed);
  SweepPoint dead = RunBatch(**with_replicas, queries, setup.top_k, killed);
  std::printf("\ndead replica holder (replication 2, peer %u killed): "
              "p50 %.3f ms | p99 %.3f ms | failovers %llu | degraded %llu\n",
              static_cast<unsigned>(killed), dead.p50_ms, dead.p99_ms,
              dead.failovers, dead.degraded);
  if (dead.degraded != 0) {
    std::fprintf(stderr,
                 "DEGRADED RESPONSES WITH A LIVE REPLICA (%llu of %zu)\n",
                 dead.degraded, queries.size());
    return 1;
  }

  // Batch throughput on the faulty fan-out: every query message takes
  // the retry/failover send path, from every pool worker at once.
  const size_t wide = setup.num_threads == 0 ? ThreadPool::HardwareThreads()
                                             : setup.num_threads;
  BatchThroughput batch[2];
  for (size_t i = 0; i < 2; ++i) {
    auto measured = MeasureBatches(replicated, i == 0 ? 1 : wide, store, docs,
                                   peers, queries, setup.top_k);
    if (!measured.ok()) {
      std::fprintf(stderr, "batch throughput failed: %s\n",
                   measured.status().ToString().c_str());
      return 1;
    }
    batch[i] = *measured;
  }
  const bool batch_identical = batch[0].fingerprint == batch[1].fingerprint;
  std::printf("batch throughput (replication 2, loss 1%%, %zu queries x %zu "
              "passes): %zu thread %.0f q/s | %zu threads %.0f q/s | "
              "speedup %.2fx | identical: %s\n",
              batch[0].queries, kBatchPasses, batch[0].threads,
              batch[0].qps, batch[1].threads, batch[1].qps,
              batch[1].qps / batch[0].qps, batch_identical ? "yes" : "no");
  if (!batch_identical) {
    std::fprintf(stderr, "BATCH FINGERPRINT DIFFERS BETWEEN 1 AND %zu "
                 "THREADS\n", wide);
    return 1;
  }

  const char* out_path = "BENCH_faults.json";
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"micro_faults\",\n");
  std::fprintf(out, "  \"scale\": \"%s\",\n", bench::ScaleName());
  bench::WriteHostJson(out);
  std::fprintf(out, "  \"num_peers\": %u,\n  \"num_docs\": %llu,\n", peers,
               static_cast<unsigned long long>(docs));
  std::fprintf(out, "  \"num_queries\": %zu,\n", queries.size());
  std::fprintf(out, "  \"loss_sweep\": [\n");
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    std::fprintf(out,
                 "    {\"loss\": %.4f, \"p50_ms\": %.4f, \"p99_ms\": %.4f, "
                 "\"retries\": %llu, \"failovers\": %llu, "
                 "\"latency_ticks\": %llu, \"degraded\": %llu, "
                 "\"keys_unreachable\": %llu}%s\n",
                 p.loss, p.p50_ms, p.p99_ms, p.retries, p.failovers,
                 p.latency_ticks, p.degraded, p.keys_unreachable,
                 i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"dead_replica\": {\"replication\": 2, "
               "\"killed_peer\": %u, \"p50_ms\": %.4f, \"p99_ms\": %.4f, "
               "\"retries\": %llu, \"failovers\": %llu, "
               "\"degraded\": %llu, \"zero_degraded\": %s},\n",
               static_cast<unsigned>(killed), dead.p50_ms, dead.p99_ms,
               dead.retries, dead.failovers, dead.degraded,
               dead.degraded == 0 ? "true" : "false");
  std::fprintf(out,
               "  \"batch_throughput\": {\"replication\": 2, "
               "\"loss\": 0.01, \"batch_queries\": %zu, \"passes\": %zu, "
               "\"qps_1_thread\": %.0f, \"threads\": %zu, "
               "\"qps_threads\": %.0f, \"speedup\": %.3f, "
               "\"identical\": true}\n}\n",
               batch[0].queries, kBatchPasses, batch[0].qps,
               batch[1].threads, batch[1].qps, batch[1].qps / batch[0].qps);
  std::fclose(out);
  std::printf("wrote %s\n", out_path);
  return 0;
}
