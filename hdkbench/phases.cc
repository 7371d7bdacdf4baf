#include "phases.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "engine/engine_snapshot.h"
#include "engine/fingerprint.h"
#include "engine/membership.h"
#include "engine/partition.h"
#include "net/fault.h"
#include "store/snapshot_format.h"
#include "store/snapshot_reader.h"

namespace hdkbench {

using hdk::PeerId;
using hdk::engine::FingerprintBatch;
using hdk::engine::FingerprintContents;
using hdk::engine::MembershipEvent;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

// Paths of the live snapshot files, for the signal handler. Plain char
// arrays: the handler may only call async-signal-safe functions.
constexpr int kMaxLiveFiles = 4;
constexpr size_t kMaxPath = 512;
char g_live_files[kMaxLiveFiles][kMaxPath];

extern "C" void RemoveLiveFilesAndExit(int sig) {
  for (auto& path : g_live_files) {
    if (path[0] != '\0') ::unlink(path);
  }
  ::_exit(128 + sig);
}

void InstallSignalHandlers() {
  static bool installed = false;
  if (installed) return;
  installed = true;
  std::signal(SIGINT, RemoveLiveFilesAndExit);
  std::signal(SIGTERM, RemoveLiveFilesAndExit);
}

}  // namespace

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSince(double start) { return NowSeconds() - start; }

size_t EngineThreads() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

ExperimentSetup MakeExperimentSetup(uint64_t seed) {
  ExperimentSetup setup = ExperimentSetup::ScaledDefault();
  setup.corpus.seed = seed;
  setup.initial_peers = kPeers;
  setup.max_peers = kPeers;
  setup.docs_per_peer = kDocsPerPeer;
  setup.num_queries = kQueries;
  setup.num_threads = EngineThreads();
  setup.corpus_cache_dir.clear();
  // At a few thousand documents the paper's large-collection DFmax ratio
  // (0.3%) gives DFmax 6, which multiplies the multi-term keys several
  // fold (see README.md); 1% keeps all three key levels populated.
  setup.df_max_fraction_low = 0.01;
  setup.df_max_fraction_high = 0.0125;
  return setup;
}

HdkEngineConfig ServeConfig(const ExperimentSetup& setup, size_t threads) {
  HdkEngineConfig config;
  config.hdk = setup.MakeParams(setup.DfMaxLow());
  config.overlay = setup.overlay;
  config.overlay_seed = setup.overlay_seed;
  config.num_threads = threads;
  return config;
}

HdkEngineConfig ChurnConfig(const ExperimentSetup& setup, size_t threads,
                            uint64_t seed) {
  HdkEngineConfig config = ServeConfig(setup, threads);
  config.replication = 2;
  config.sync.mode = hdk::sync::SyncMode::kIbf;
  auto plan = hdk::net::FaultPlan::Parse(
      "seed=" + std::to_string(seed) +
      ",loss.ReplicaPush=0.05,loss.KeyProbe=0.01,latency.KeyProbe=2,"
      "latency@" + std::to_string(kSlowPeer) + "=64");
  if (plan.ok()) config.faults = *plan;  // the spec above is constant
  return config;
}

hdk::SearchOptions ChurnSearchOptions() {
  hdk::SearchOptions options;
  options.hedge_delay_ticks = 4;
  options.deadline_ticks = 4096;
  return options;
}

bool RunSetup(Run& run, const ExperimentSetup& setup,
              const HdkEngineConfig& config, int repeats, Setup* out) {
  const uint64_t docs =
      static_cast<uint64_t>(setup.max_peers) * setup.docs_per_peer;
  for (int r = 0; r < repeats; ++r) {
    // One set-up in memory at a time.
    out->engine.reset();
    out->ctx.reset();
    const auto id = static_cast<uint64_t>(r);

    const double t0 = NowSeconds();
    auto ctx = std::make_unique<hdk::engine::ExperimentContext>(setup);
    const hdk::corpus::DocumentStore* store = nullptr;
    {
      ScopedSpan span(run.tracer, "corpus.fill", id);
      store = &ctx->GrowTo(docs);
    }
    const double t1 = NowSeconds();
    std::vector<hdk::corpus::Query> queries;
    {
      ScopedSpan span(run.tracer, "corpus.querygen", id);
      queries = ctx->MakeQueries(docs, setup.num_queries);
    }
    // A whole number of origin rotations per pass, so every SearchBatch
    // starts at origin 0 like the serial stream does.
    queries.resize(queries.size() / setup.max_peers * setup.max_peers);
    const double t2 = NowSeconds();
    auto built = [&] {
      ScopedSpan span(run.tracer, "engine.build", id);
      return HdkSearchEngine::Build(
          config, *store, hdk::engine::SplitEvenly(docs, setup.max_peers));
    }();
    const double t3 = NowSeconds();
    const std::string why = built.ok() ? "" : built.status().ToString();
    if (!run.tally.Op(built.ok(), "set-up build: " + why)) return false;
    if (!run.tally.Check(!queries.empty(), "the generator made queries")) {
      return false;
    }
    out->fill_s.push_back(t1 - t0);
    out->querygen_s.push_back(t2 - t1);
    out->build_s.push_back(t3 - t2);
    out->setup_s.push_back(t3 - t0);
    out->ctx = std::move(ctx);
    out->store = store;
    out->queries = std::move(queries);
    out->engine = std::move(built).value();
  }
  return true;
}

PeerId RotatingOrigin(size_t i, size_t num_peers) {
  return static_cast<PeerId>(i % num_peers);
}

PeerId RotatingOriginAvoidingSlowPeer(size_t i, size_t num_peers) {
  const auto origin = static_cast<PeerId>(i % num_peers);
  return origin == kSlowPeer ? static_cast<PeerId>((origin + 1) % num_peers)
                             : origin;
}

void RunStream(Run& run, HdkSearchEngine& engine,
               std::span<const hdk::corpus::Query> queries,
               const hdk::SearchOptions& options, const OriginFn& origin,
               size_t start, size_t min_queries, double budget_s,
               StreamStats* stats,
               std::vector<hdk::engine::SearchResponse>* first_pass) {
  using Clock = std::chrono::steady_clock;
  const size_t n = queries.size();
  const uint64_t bytes_before = engine.traffic()->Snapshot().bytes;
  uint64_t failed = 0;
  size_t j = 0;
  const double begin = NowSeconds();
  for (; j < min_queries || SecondsSince(begin) < budget_s; ++j) {
    const size_t position = start + j;
    const hdk::corpus::Query& query = queries[position % n];
    const PeerId from = origin(position, engine.num_peers());
    // Spans cover one pass; a time-boxed stream would record millions.
    const int32_t span =
        j < n ? run.tracer.Begin("engine.search", stats->queries) : kNoSpan;
    const auto t0 = Clock::now();
    hdk::engine::SearchResponse response =
        engine.Search(query.terms, kTopK, options, from);
    const auto t1 = Clock::now();
    run.tracer.End(span);

    stats->latency_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    stats->postings.push_back(
        static_cast<double>(response.cost.postings_fetched));
    stats->ticks.push_back(static_cast<double>(response.cost.latency_ticks));
    stats->cost += response.cost;
    ++stats->queries;
    if (response.degraded || response.shed) ++failed;
    if (first_pass != nullptr && j < n) {
      first_pass->push_back(std::move(response));
    }
  }
  stats->bytes += engine.traffic()->Snapshot().bytes - bytes_before;
  run.tally.Ops(j, failed, "stream queries (degraded or shed)");
}

void RunBatches(Run& run, HdkSearchEngine& engine,
                std::span<const hdk::corpus::Query> queries,
                const hdk::SearchOptions& options, size_t min_batches,
                double budget_s, const uint64_t* expected_fingerprint,
                std::vector<double>* qps) {
  const double begin = NowSeconds();
  for (size_t b = 0; b < min_batches || SecondsSince(begin) < budget_s;
       ++b) {
    const double t0 = NowSeconds();
    hdk::engine::BatchResponse batch;
    {
      ScopedSpan span(run.tracer, "engine.search_batch", b);
      batch = engine.SearchBatch(queries, kTopK, options);
    }
    const double seconds = SecondsSince(t0);
    qps->push_back(static_cast<double>(queries.size()) / seconds);
    uint64_t failed = 0;
    for (const auto& response : batch.responses) {
      if (response.degraded || response.shed) ++failed;
    }
    run.tally.Ops(batch.responses.size(), failed,
                  "batch queries (degraded or shed)");
    if (expected_fingerprint != nullptr) {
      run.tally.Check(FingerprintBatch(batch) == *expected_fingerprint,
                      "SearchBatch fingerprint equals the serial stream's");
    }
  }
}

SnapshotFile::SnapshotFile(const std::string& dir) {
  InstallSignalHandlers();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  static int counter = 0;
  path_ = dir + "/snapshot-" + std::to_string(::getpid()) + "-" +
          std::to_string(counter++) + ".hdks";
  for (auto& slot : g_live_files) {
    if (slot[0] == '\0' && path_.size() < kMaxPath) {
      std::memcpy(slot, path_.c_str(), path_.size() + 1);
      break;
    }
  }
}

SnapshotFile::~SnapshotFile() {
  Remove();
  for (auto& slot : g_live_files) {
    if (path_ == slot) slot[0] = '\0';
  }
}

void SnapshotFile::Remove() const {
  std::error_code ec;
  std::filesystem::remove(path_, ec);
  // SaveSnapshot writes a temporary file and renames it; a failed save may
  // leave that behind.
  std::filesystem::remove(path_ + ".tmp", ec);
}

bool TimedSave(Run& run, const HdkSearchEngine& engine,
               const SnapshotFile& file, SnapshotStats* stats) {
  const double t0 = NowSeconds();
  hdk::Status status;
  {
    ScopedSpan span(run.tracer, "engine.save", stats->save_s.size());
    status = engine.SaveSnapshot(file.path());
  }
  const double seconds = SecondsSince(t0);
  if (!run.tally.Op(status.ok(), "save snapshot: " + status.ToString())) {
    return false;
  }
  stats->save_s.push_back(seconds);
  std::error_code ec;
  stats->file_mb =
      static_cast<double>(std::filesystem::file_size(file.path(), ec)) / kMiB;
  if (!run.tracer.enabled()) return true;

  const double o0 = NowSeconds();
  auto reader = [&] {
    ScopedSpan span(run.tracer, "store.open", stats->open_s.size());
    return hdk::store::SnapshotReader::Open(file.path());
  }();
  const double open_seconds = SecondsSince(o0);
  const std::string why = reader.ok() ? "" : reader.status().ToString();
  if (!run.tally.Op(reader.ok(), "open snapshot: " + why)) return false;
  stats->open_s.push_back(open_seconds);
  for (const hdk::store::SectionEntry& section : reader->sections()) {
    const double mb = static_cast<double>(section.length) / kMiB;
    if (section.id ==
        static_cast<uint32_t>(hdk::store::SectionId::kGlobalIndex)) {
      stats->global_index_mb = mb;
    } else if (section.id ==
               static_cast<uint32_t>(hdk::store::SectionId::kProtocol)) {
      stats->protocol_mb = mb;
    }
  }
  return true;
}

std::unique_ptr<HdkSearchEngine> TimedLoad(
    Run& run, const HdkEngineConfig& config,
    const hdk::corpus::DocumentStore& store, const SnapshotFile& file,
    SnapshotStats* stats) {
  const double t0 = NowSeconds();
  auto loaded = [&] {
    ScopedSpan span(run.tracer, "engine.load", stats->load_s.size());
    return hdk::engine::LoadEngineSnapshot(config, store, file.path());
  }();
  const double seconds = SecondsSince(t0);
  const std::string why = loaded.ok() ? "" : loaded.status().ToString();
  if (!run.tally.Op(loaded.ok(), "load snapshot: " + why)) return nullptr;
  stats->load_s.push_back(seconds);
  return std::move(loaded).value();
}

void SnapshotRoundTrips(Run& run, const HdkSearchEngine& engine,
                        const HdkEngineConfig& config,
                        const hdk::corpus::DocumentStore& store, int repeats,
                        SnapshotStats* stats) {
  const uint64_t expected =
      FingerprintContents(engine.global_index().ExportContents());
  SnapshotFile file(run.settings.work_dir);
  for (int r = 0; r < repeats; ++r) {
    if (!TimedSave(run, engine, file, stats)) return;
    std::unique_ptr<HdkSearchEngine> loaded =
        TimedLoad(run, config, store, file, stats);
    file.Remove();
    if (loaded == nullptr) return;
    run.tally.Check(
        FingerprintContents(loaded->global_index().ExportContents()) ==
            expected,
        "loaded snapshot contents equal the saved engine's");
  }
}

namespace {

// One membership batch, then one sweep and one short query stream.
bool ApplyBatch(Run& run, Setup& setup, HdkSearchEngine& engine,
                const std::vector<MembershipEvent>& events, bool join,
                ChurnStats* stats) {
  const uint64_t event_id = stats->join_s.size() + stats->leave_s.size();
  const uint64_t postings_before = engine.traffic()->Snapshot().postings;
  const double t0 = NowSeconds();
  hdk::Status status;
  {
    ScopedSpan span(run.tracer, join ? "engine.join_wave" : "engine.departure",
                    event_id);
    status = engine.ApplyMembership(*setup.store, events);
  }
  const double seconds = SecondsSince(t0);
  if (!run.tally.Op(status.ok(), "membership batch: " + status.ToString())) {
    return false;
  }
  (join ? stats->join_s : stats->leave_s).push_back(seconds);
  stats->event_postings.push_back(static_cast<double>(
      engine.traffic()->Snapshot().postings - postings_before));
  if (join) {
    stats->joins.push_back(engine.last_growth());
  } else {
    stats->departures.push_back(engine.last_departure());
  }

  if (run.tracer.enabled()) {
    stats->divergence_before.push_back(static_cast<double>(
        engine.global_index().CountReplicaDivergence()));
  }
  const double s0 = NowSeconds();
  auto sweep = [&] {
    ScopedSpan span(run.tracer, "engine.sweep", event_id);
    return engine.RunAntiEntropy();
  }();
  const double sweep_seconds = SecondsSince(s0);
  if (!run.tally.Op(sweep.ok(), "anti-entropy sweep")) return false;
  stats->sweep_s.push_back(sweep_seconds);
  stats->sweeps.push_back(*sweep);

  RunStream(run, engine, setup.queries, ChurnSearchOptions(),
            RotatingOriginAvoidingSlowPeer, stats->next_query,
            kChurnStreamQueries, 0.0, &stats->stream);
  stats->next_query += kChurnStreamQueries;
  return true;
}

}  // namespace

void RunChurnCycles(Run& run, Setup& setup, HdkSearchEngine& engine,
                    size_t min_cycles, double budget_s, ChurnStats* stats) {
  const uint32_t docs_per_peer = setup.ctx->setup().docs_per_peer;
  const double begin = NowSeconds();
  for (size_t cycle = 0; cycle < min_cycles || SecondsSince(begin) < budget_s;
       ++cycle) {
    // The joining peers' documents are generated before the clock starts.
    const hdk::DocId first = stats->frontier;
    stats->frontier = first + kWavePeers * docs_per_peer;
    setup.store = &setup.ctx->GrowTo(stats->frontier);
    if (!ApplyBatch(run, setup, engine,
                    hdk::engine::JoinWave(first, kWavePeers, docs_per_peer),
                    /*join=*/true, stats)) {
      return;
    }
    for (uint32_t i = 0; i < kWavePeers; ++i) {
      if (!ApplyBatch(run, setup, engine,
                      {MembershipEvent::Leave(kSlowPeer + 1)},
                      /*join=*/false, stats)) {
        return;
      }
    }
  }
}

void CheckChurnedEngine(Run& run, HdkSearchEngine& engine,
                        const hdk::corpus::DocumentStore& store) {
  auto sweep = engine.RunAntiEntropy();
  run.tally.Op(sweep.ok(), "final anti-entropy sweep");
  run.tally.Check(engine.global_index().CountReplicaDivergence() == 0,
                  "no replica diverges after the last sweep");

  // Faults never change the published index; the reference build runs on
  // a perfect transport.
  HdkEngineConfig reference_config = engine.config();
  reference_config.faults = hdk::net::FaultPlan{};
  auto reference =
      HdkSearchEngine::Build(reference_config, store, engine.peer_ranges());
  if (!run.tally.Op(reference.ok(), "from-scratch reference build")) return;
  run.tally.Check(
      FingerprintContents(engine.global_index().ExportContents()) ==
          FingerprintContents((*reference)->global_index().ExportContents()),
      "churned contents equal a from-scratch build over peer_ranges()");
}

}  // namespace hdkbench
