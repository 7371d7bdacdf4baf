#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "engine/fingerprint.h"
#include "engine/partition.h"
#include "layers.h"
#include "phases.h"
#include "stats.h"

namespace hdkbench {

using hdk::engine::FingerprintBatch;
using hdk::engine::FingerprintContents;

namespace {

constexpr int kSetupRepeats = 5;
constexpr int kSnapshotRepeats = 7;
// Churn cycles every workload runs at least (three join-wave samples).
constexpr size_t kMinChurnCycles = 3;
// Serve splits its window over this many engines (see Serve).
constexpr size_t kServeRounds = 5;
// A SearchBatch runs the query set this many times over, so one batch
// lasts tens of milliseconds instead of a few.
constexpr size_t kBatchPasses = 16;
constexpr size_t kMinColdStartCycles = 3;
constexpr size_t kMinBatches = 5;
// p99 needs 10 samples beyond its rank.
constexpr size_t kMinLatencySamples = 1000;

/// Everything a workload measured, for both metric emitters.
struct Observations {
  Setup setup;
  std::vector<double> build_s;  // the workload's timed full builds
  StreamStats stream;           // its closed-loop query stream
  std::vector<double> qps;      // its SearchBatch throughput samples
  SnapshotStats snapshot;
  ChurnStats churn;
  // Read off the set-up engine right after its build.
  double index_postings_per_peer = 0.0;
  hdk::p2p::PhaseTimings phases;
  uint64_t keys_inserted = 0;
  uint64_t postings_inserted = 0;
  uint64_t notifications = 0;
  uint64_t global_keys = 0;
  uint64_t stored_postings = 0;
};

/// `items` repeated `passes` times over.
template <typename T>
std::vector<T> Repeat(const std::vector<T>& items, size_t passes) {
  std::vector<T> out;
  out.reserve(items.size() * passes);
  for (size_t p = 0; p < passes; ++p) {
    out.insert(out.end(), items.begin(), items.end());
  }
  return out;
}

uint64_t NumDocs(const ExperimentSetup& setup) {
  return static_cast<uint64_t>(setup.max_peers) * setup.docs_per_peer;
}

/// Builds `config`'s engine over the set-up's even document ranges and,
/// when `build_s` is non-null, appends the build time to it. nullptr on
/// failure.
std::unique_ptr<HdkSearchEngine> BuildEngine(
    Run& run, const ExperimentSetup& setup, const HdkEngineConfig& config,
    const hdk::corpus::DocumentStore& store, uint64_t id,
    std::vector<double>* build_s) {
  const double t0 = NowSeconds();
  auto built = [&] {
    ScopedSpan span(run.tracer, "engine.build", id);
    return HdkSearchEngine::Build(
        config, store,
        hdk::engine::SplitEvenly(NumDocs(setup), setup.max_peers));
  }();
  const double seconds = SecondsSince(t0);
  if (!run.tally.Op(built.ok(), "full build")) return nullptr;
  if (build_s != nullptr) build_s->push_back(seconds);
  return std::move(built).value();
}

/// Reads the build-side figures of the freshly built set-up engine; the
/// traced run also replays its candidate scans.
void NoteSetupEngine(Run& run, Observations& obs) {
  const HdkSearchEngine& engine = *obs.setup.engine;
  obs.index_postings_per_peer = engine.InsertedPostingsPerPeer();
  obs.phases = engine.phase_timings();
  for (const auto& level : engine.indexing_report().levels) {
    obs.keys_inserted += level.keys_inserted;
    obs.postings_inserted += level.postings_inserted;
    obs.notifications += level.notifications;
  }
  obs.global_keys = engine.global_index().TotalKeys();
  obs.stored_postings = engine.global_index().TotalStoredPostings();
  if (run.tracer.enabled()) ReplayBuild(run, engine, *obs.setup.store);
}

/// The churn part of the lifecycle for workloads that focus elsewhere:
/// kMinChurnCycles churn cycles on a fresh replicated, faulty network.
void RunChurnProbe(Run& run, const ExperimentSetup& setup,
                   Observations& obs) {
  const HdkEngineConfig config =
      ChurnConfig(setup, EngineThreads(), run.settings.seed);
  std::unique_ptr<HdkSearchEngine> engine =
      BuildEngine(run, setup, config, *obs.setup.store, 0, nullptr);
  if (engine == nullptr) return;
  obs.churn.frontier = static_cast<hdk::DocId>(NumDocs(setup));
  RunChurnCycles(run, obs.setup, *engine, kMinChurnCycles, 0.0, &obs.churn);
  CheckChurnedEngine(run, *engine, *obs.setup.store);
}

/// Traced-run extras shared by every workload, on the workload's query
/// engine.
void MeasureQueryLayers(Run& run, HdkSearchEngine& engine,
                        std::span<const hdk::corpus::Query> queries,
                        const hdk::SearchOptions& options,
                        const OriginFn& origin) {
  if (!run.tracer.enabled()) return;
  ReplayQueries(run, engine, queries, origin);
  MeasureTraceOverhead(run, engine, queries, options, origin);
}

/// Serve: the query path. Set-up builds the default engine. The window is
/// split into kServeRounds rounds, each on a freshly built engine (the
/// first on the set-up engine): a closed-loop stream, then SearchBatch at
/// the engine threads. Per-query latency depends on where an engine's
/// tables landed in memory; with one engine per run it swings by 20%
/// between runs, so the rounds average over several.
void Serve(Run& run, const ExperimentSetup& setup, Observations& obs) {
  const HdkEngineConfig config = ServeConfig(setup, EngineThreads());
  if (!RunSetup(run, setup, config, kSetupRepeats, &obs.setup)) return;
  obs.build_s = obs.setup.build_s;
  NoteSetupEngine(run, obs);
  const auto& queries = obs.setup.queries;
  const std::vector<hdk::corpus::Query> batch_queries =
      Repeat(queries, kBatchPasses);
  const double round_s = run.settings.seconds / kServeRounds;

  std::unique_ptr<HdkSearchEngine> engine = std::move(obs.setup.engine);
  uint64_t serial_fingerprint = 0;
  for (size_t round = 0; round < kServeRounds; ++round) {
    if (round > 0) {
      engine.reset();
      engine = BuildEngine(run, setup, config, *obs.setup.store, round,
                           &obs.build_s);
      if (engine == nullptr) return;
    }
    std::vector<hdk::engine::SearchResponse> first_pass;
    RunStream(run, *engine, queries, {}, RotatingOrigin, 0,
              std::max(queries.size(), kMinLatencySamples), 0.6 * round_s,
              &obs.stream, round == 0 ? &first_pass : nullptr);
    if (round == 0) {
      // Every pass of a batch starts at origin 0 (see RunSetup), so every
      // batch must answer exactly like the first serial pass, repeated.
      hdk::engine::BatchResponse serial;
      serial.responses = Repeat(first_pass, kBatchPasses);
      serial_fingerprint = FingerprintBatch(serial);
    }
    RunBatches(run, *engine, batch_queries, {}, 1, 0.4 * round_s,
               &serial_fingerprint, &obs.qps);
  }
  MeasureQueryLayers(run, *engine, queries, {}, RotatingOrigin);

  SnapshotRoundTrips(run, *engine, config, *obs.setup.store,
                     kSnapshotRepeats, &obs.snapshot);
  engine.reset();
  RunChurnProbe(run, setup, obs);
}

/// Churn: set-up builds the replicated, faulty network; the window runs
/// churn cycles.
void Churn(Run& run, const ExperimentSetup& setup, Observations& obs) {
  const HdkEngineConfig config =
      ChurnConfig(setup, EngineThreads(), run.settings.seed);
  if (!RunSetup(run, setup, config, kSetupRepeats, &obs.setup)) return;
  obs.build_s = obs.setup.build_s;
  NoteSetupEngine(run, obs);
  HdkSearchEngine& engine = *obs.setup.engine;

  obs.churn.frontier = static_cast<hdk::DocId>(NumDocs(setup));
  RunChurnCycles(run, obs.setup, engine, kMinChurnCycles,
                 run.settings.seconds, &obs.churn);
  CheckChurnedEngine(run, engine, *obs.setup.store);
  obs.stream = obs.churn.stream;

  const auto& queries = obs.setup.queries;
  RunBatches(run, engine, Repeat(queries, kBatchPasses), ChurnSearchOptions(),
             kMinBatches, 0.1 * run.settings.seconds, nullptr, &obs.qps);
  MeasureQueryLayers(run, engine, queries, ChurnSearchOptions(),
                     RotatingOriginAvoidingSlowPeer);
  SnapshotRoundTrips(run, engine, config, *obs.setup.store, kSnapshotRepeats,
                     &obs.snapshot);
}

/// Cold start: the window repeats build, save, drop, load and one query
/// batch on the loaded engine, which must match the set-up engine.
void ColdStart(Run& run, const ExperimentSetup& setup, Observations& obs) {
  const HdkEngineConfig config = ServeConfig(setup, EngineThreads());
  if (!RunSetup(run, setup, config, kSetupRepeats, &obs.setup)) return;
  NoteSetupEngine(run, obs);
  const auto& queries = obs.setup.queries;
  const std::vector<hdk::corpus::Query> batch_queries =
      Repeat(queries, kBatchPasses);
  const hdk::corpus::DocumentStore& store = *obs.setup.store;
  const uint64_t reference_contents =
      FingerprintContents(obs.setup.engine->global_index().ExportContents());
  const uint64_t reference_batch =
      FingerprintBatch(obs.setup.engine->SearchBatch(batch_queries, kTopK));
  obs.setup.engine.reset();

  SnapshotFile file(run.settings.work_dir);
  std::unique_ptr<HdkSearchEngine> loaded;
  const double begin = NowSeconds();
  const double window = run.settings.seconds;
  for (size_t cycle = 0;
       cycle < kMinColdStartCycles || SecondsSince(begin) < window; ++cycle) {
    loaded.reset();
    std::unique_ptr<HdkSearchEngine> built =
        BuildEngine(run, setup, config, store, cycle, &obs.build_s);
    if (built == nullptr) return;
    if (!TimedSave(run, *built, file, &obs.snapshot)) return;
    built.reset();  // drop the engine before loading
    loaded = TimedLoad(run, config, store, file, &obs.snapshot);
    if (loaded == nullptr) return;

    const double b0 = NowSeconds();
    hdk::engine::BatchResponse batch;
    {
      ScopedSpan span(run.tracer, "engine.search_batch", cycle);
      batch = loaded->SearchBatch(batch_queries, kTopK);
    }
    obs.qps.push_back(static_cast<double>(batch_queries.size()) /
                      SecondsSince(b0));
    file.Remove();
    uint64_t failed = 0;
    for (const auto& response : batch.responses) {
      if (response.degraded || response.shed) ++failed;
    }
    run.tally.Ops(batch.responses.size(), failed, "loaded-engine queries");
    run.tally.Check(FingerprintContents(
                        loaded->global_index().ExportContents()) ==
                        reference_contents,
                    "loaded contents equal the built engine's");
    run.tally.Check(FingerprintBatch(batch) == reference_batch,
                    "loaded batch fingerprint equals the built engine's");
    // One closed-loop pass per loaded engine: the latency figures average
    // over every load of the window, not over one memory layout.
    RunStream(run, *loaded, queries, {}, RotatingOrigin, 0, queries.size(),
              0.0, &obs.stream);
  }

  MeasureQueryLayers(run, *loaded, queries, {}, RotatingOrigin);
  loaded.reset();
  RunChurnProbe(run, setup, obs);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Mean of the first `n` values (the deterministic first pass).
double MeanOfFirst(const std::vector<double>& values, size_t n) {
  return Mean(std::vector<double>(
      values.begin(), values.begin() + std::min(n, values.size())));
}

template <typename T, typename F>
double MeanOf(const std::vector<T>& items, F field) {
  std::vector<double> values;
  values.reserve(items.size());
  for (const T& item : items) {
    values.push_back(static_cast<double>(field(item)));
  }
  return Mean(values);
}

void EmitEndToEnd(Run& run, const Observations& obs) {
  const TailPercentile tail = HighestSupportedPercentile(obs.stream.latency_us);
  std::printf("query latency: %zu samples, highest supported percentile "
              "p%g = %.3f us\n",
              tail.samples, tail.q, tail.value);
  run.tally.Check(tail.q >= 99.0,
                  "query_p99_us rests on at least 10 samples beyond it");
  Metrics& m = run.metrics;
  m.Set("setup_s", Median(obs.setup.setup_s), "s");
  m.Set("query_p50_us", Percentile(obs.stream.latency_us, 50), "us");
  m.Set("query_p99_us", Percentile(obs.stream.latency_us, 99), "us");
  m.Set("query_qps", Median(obs.qps), "queries/s");
  m.Set("query_postings",
        MeanOfFirst(obs.stream.postings, obs.setup.queries.size()),
        "postings");
  m.Set("query_p99_ticks", Percentile(obs.churn.stream.ticks, 99), "ticks");
  m.Set("build_s", Median(obs.build_s), "s");
  m.Set("save_s", Median(obs.snapshot.save_s), "s");
  m.Set("load_s", Median(obs.snapshot.load_s), "s");
  m.Set("snapshot_mb", obs.snapshot.file_mb, "MB");
  m.Set("index_postings_per_peer", obs.index_postings_per_peer, "postings");
  m.Set("peak_rss_mb", PeakRssMb(), "MB");
  m.Set("join_wave_s", Median(obs.churn.join_s), "s");
  m.Set("leave_s", Median(obs.churn.leave_s), "s");
  m.Set("churn_postings_per_event", Mean(obs.churn.event_postings),
        "postings");
  m.Set("sweep_s", Median(obs.churn.sweep_s), "s");
}

void EmitPerLayer(Run& run, const Observations& obs) {
  Metrics& m = run.metrics;
  m.Set("corpus.fill_s", Median(obs.setup.fill_s), "s");
  m.Set("corpus.querygen_s", Median(obs.setup.querygen_s), "s");

  m.Set("p2p.scan_s", obs.phases.scan_seconds, "s");
  m.Set("p2p.merge_s", obs.phases.merge_seconds, "s");
  m.Set("p2p.keys_inserted", static_cast<double>(obs.keys_inserted), "count");
  m.Set("p2p.postings_inserted", static_cast<double>(obs.postings_inserted),
        "postings");
  m.Set("p2p.notifications", static_cast<double>(obs.notifications), "count");
  m.Set("p2p.global_keys", static_cast<double>(obs.global_keys), "count");
  m.Set("p2p.stored_postings", static_cast<double>(obs.stored_postings),
        "postings");

  using hdk::p2p::DepartureStats;
  using hdk::p2p::GrowthStats;
  const auto& joins = obs.churn.joins;
  m.Set("p2p.join.reclassified_keys",
        MeanOf(joins, [](const GrowthStats& g) { return g.reclassified_keys; }),
        "count");
  m.Set("p2p.join.migrated_keys",
        MeanOf(joins, [](const GrowthStats& g) { return g.migrated_keys; }),
        "count");
  m.Set("p2p.join.rescanned_peers",
        MeanOf(joins, [](const GrowthStats& g) { return g.rescanned_peers; }),
        "count");
  m.Set("p2p.join.delta_postings",
        MeanOf(joins, [](const GrowthStats& g) { return g.delta_postings; }),
        "postings");
  const auto& leaves = obs.churn.departures;
  m.Set("p2p.leave.removed_contributions",
        MeanOf(leaves,
               [](const DepartureStats& d) { return d.removed_contributions; }),
        "count");
  m.Set("p2p.leave.retracted_keys",
        MeanOf(leaves,
               [](const DepartureStats& d) { return d.retracted_keys; }),
        "count");
  m.Set("p2p.leave.reverse_reclassified",
        MeanOf(leaves,
               [](const DepartureStats& d) { return d.reverse_reclassified; }),
        "count");
  m.Set("p2p.leave.rescanned_peers",
        MeanOf(leaves,
               [](const DepartureStats& d) { return d.rescanned_peers; }),
        "count");
  m.Set("p2p.leave.moved_postings",
        MeanOf(leaves,
               [](const DepartureStats& d) { return d.moved_postings; }),
        "postings");

  const StreamStats& stream = obs.stream;
  const auto queries =
      static_cast<double>(std::max<uint64_t>(stream.queries, 1));
  m.Set("dht.hops_per_message",
        static_cast<double>(stream.cost.hops) /
            static_cast<double>(std::max<uint64_t>(stream.cost.messages, 1)),
        "hops");
  m.Set("net.messages_per_query",
        static_cast<double>(stream.cost.messages) / queries, "count");
  m.Set("net.bytes_per_query", static_cast<double>(stream.bytes) / queries,
        "bytes");
  const hdk::QueryCost& faulty = obs.churn.stream.cost;
  const auto faulty_queries =
      static_cast<double>(std::max<uint64_t>(obs.churn.stream.queries, 1));
  const struct {
    const char* name;
    uint64_t value;
  } net_counters[] = {
      {"net.retries", faulty.retries},
      {"net.failovers", faulty.failovers},
      {"net.hedges_fired", faulty.hedges_fired},
      {"net.hedge_wins", faulty.hedge_wins},
      {"net.breaker_short_circuits", faulty.breaker_short_circuits},
      {"net.keys_unreachable", faulty.keys_unreachable},
      {"net.deadline_exceeded", faulty.deadline_exceeded},
  };
  for (const auto& counter : net_counters) {
    m.Set(counter.name, static_cast<double>(counter.value) / faulty_queries,
          "count");
  }

  using hdk::sync::SyncStats;
  const auto& sweeps = obs.churn.sweeps;
  m.Set("sync.divergence_before", Mean(obs.churn.divergence_before), "count");
  m.Set("sync.pairs_checked",
        MeanOf(sweeps, [](const SyncStats& s) { return s.pairs_checked; }),
        "count");
  m.Set("sync.pairs_diverged",
        MeanOf(sweeps, [](const SyncStats& s) { return s.pairs_diverged; }),
        "count");
  m.Set("sync.full_syncs",
        MeanOf(sweeps, [](const SyncStats& s) { return s.full_syncs; }),
        "count");
  m.Set("sync.shipped_postings",
        MeanOf(sweeps, [](const SyncStats& s) { return s.ShippedPostings(); }),
        "postings");
  m.Set("sync.sketch_bytes",
        MeanOf(sweeps, [](const SyncStats& s) { return s.sketch_bytes; }),
        "bytes");

  const double open_s = Median(obs.snapshot.open_s);
  m.Set("store.open_s", open_s, "s");
  m.Set("store.section_global_index_mb", obs.snapshot.global_index_mb, "MB");
  m.Set("store.section_protocol_mb", obs.snapshot.protocol_mb, "MB");
  m.Set("engine.adopt_s", Median(obs.snapshot.load_s) - open_s, "s");
  const double serial_qps = 1e6 / Mean(stream.latency_us);
  m.Set("engine.batch_speedup", Median(obs.qps) / serial_qps, "ratio");
}

}  // namespace

bool IsWorkload(std::string_view name) {
  return name == "serve" || name == "churn" || name == "cold-start";
}

void RunWorkload(Run& run) {
  const std::string& name = run.settings.workload;
  const ExperimentSetup setup = MakeExperimentSetup(run.settings.seed);
  Observations obs;
  if (name == "serve") {
    Serve(run, setup, obs);
  } else if (name == "churn") {
    Churn(run, setup, obs);
  } else {
    ColdStart(run, setup, obs);
  }
  if (!run.tracer.enabled()) {
    EmitEndToEnd(run, obs);
    return;
  }
  ProbeOverlay(run, setup);
  if (obs.setup.store != nullptr) {
    MeasureThreadScaling(run, setup, *obs.setup.store);
  }
  EmitPerLayer(run, obs);
}

}  // namespace hdkbench
