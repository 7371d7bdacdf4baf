// Building blocks of the workloads: set-up, closed-loop query streams,
// batch throughput, snapshot save/load, and churn cycles. Each phase calls
// the library only through its public API, records spans around those
// calls on the run's tracer, and counts its operations on the run's tally.
#ifndef HDKBENCH_PHASES_H_
#define HDKBENCH_PHASES_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/query_cost.h"
#include "common/search_options.h"
#include "corpus/query_gen.h"
#include "engine/experiment.h"
#include "engine/hdk_engine.h"
#include "p2p/indexing_protocol.h"
#include "run.h"
#include "sync/sync.h"

namespace hdkbench {

using hdk::engine::ExperimentSetup;
using hdk::engine::HdkEngineConfig;
using hdk::engine::HdkSearchEngine;

/// The scale: the initial network, the size of every peer (joining peers
/// too), and the query set.
inline constexpr uint32_t kPeers = 16;
inline constexpr uint32_t kDocsPerPeer = 150;
inline constexpr uint32_t kQueries = kPeers * 256;

/// Results per query (the scaled default's top-k).
inline constexpr size_t kTopK = 20;

/// Peers per join wave, and departures per cycle (so a churn cycle leaves
/// the network size where it started).
inline constexpr uint32_t kWavePeers = 4;

/// The peer every message to which draws up to 64 latency ticks. Churn
/// departs peer kSlowPeer + 1, so the slow peer stays the same peer for
/// the whole run.
inline constexpr hdk::PeerId kSlowPeer = 0;

/// Queries in each closed-loop stream that follows a membership batch.
/// Long enough that the few cache-cold queries right after a batch stay
/// well inside the slowest 1%.
inline constexpr size_t kChurnStreamQueries = 1024;

/// Engine threads: the hardware thread count.
size_t EngineThreads();

/// The scaled-default corpus and HDK parameters at the benchmark's scale,
/// with the synthetic corpus seeded by the workload seed. The on-disk
/// corpus cache stays off, so no run reads another run's corpus.
ExperimentSetup MakeExperimentSetup(uint64_t seed);

/// The query-path configuration: replication 1, perfect transport.
HdkEngineConfig ServeConfig(const ExperimentSetup& setup, size_t threads);

/// The churn configuration: replication 2, IBF replica sync, and a fault
/// plan that loses 5% of replica pushes and 1% of key probes, adds up to 2
/// ticks to every key probe and up to 64 ticks to every message sent to
/// kSlowPeer. Circuit breakers stay off: SearchBatch rotates its origins
/// through kSlowPeer, whose slow responses trip the holders' latency
/// breakers until both holders of some keys are open and queries degrade.
HdkEngineConfig ChurnConfig(const ExperimentSetup& setup, size_t threads,
                            uint64_t seed);

/// Hedged reads after 4 ticks under a deadline no query reaches.
hdk::SearchOptions ChurnSearchOptions();

/// Corpus, query set and the set-up engine.
struct Setup {
  std::unique_ptr<hdk::engine::ExperimentContext> ctx;
  const hdk::corpus::DocumentStore* store = nullptr;
  std::vector<hdk::corpus::Query> queries;
  std::unique_ptr<HdkSearchEngine> engine;
  // One sample per repetition.
  std::vector<double> setup_s;
  std::vector<double> fill_s;
  std::vector<double> querygen_s;
  std::vector<double> build_s;
};

/// Generates the corpus and the query set and builds `config`'s engine
/// over even document ranges of the set-up's peers; repeats the whole set-up
/// `repeats` times and keeps the last one. Returns false on failure.
bool RunSetup(Run& run, const ExperimentSetup& setup,
              const HdkEngineConfig& config, int repeats, Setup* out);

/// Query origin for the i-th query of a stream over `num_peers` peers.
using OriginFn = std::function<hdk::PeerId(size_t i, size_t num_peers)>;
hdk::PeerId RotatingOrigin(size_t i, size_t num_peers);
/// Rotates like RotatingOrigin but never originates at kSlowPeer: a slow
/// requester slows every response leg, which no hedge can avoid.
hdk::PeerId RotatingOriginAvoidingSlowPeer(size_t i, size_t num_peers);

/// Per-query samples of closed-loop streams (accumulates across calls).
struct StreamStats {
  std::vector<double> latency_us;  // wall clock per Search()
  std::vector<double> postings;    // QueryCost::postings_fetched
  std::vector<double> ticks;       // QueryCost::latency_ticks
  hdk::QueryCost cost;             // summed
  uint64_t bytes = 0;              // traffic bytes the queries recorded
  uint64_t queries = 0;
};

/// One closed-loop client: issues queries[(start + j) % size] one Search()
/// at a time until at least `min_queries` were issued and `budget_s`
/// seconds have passed. When `first_pass` is non-null it receives the
/// responses to the first queries.size() queries.
void RunStream(Run& run, HdkSearchEngine& engine,
               std::span<const hdk::corpus::Query> queries,
               const hdk::SearchOptions& options, const OriginFn& origin,
               size_t start, size_t min_queries, double budget_s,
               StreamStats* stats,
               std::vector<hdk::engine::SearchResponse>* first_pass = nullptr);

/// Repeats SearchBatch over `queries` until at least `min_batches` ran
/// and `budget_s` seconds have passed; appends one queries/s sample per
/// batch. When `expected_fingerprint` is non-null every batch must match
/// it.
void RunBatches(Run& run, HdkSearchEngine& engine,
                std::span<const hdk::corpus::Query> queries,
                const hdk::SearchOptions& options, size_t min_batches,
                double budget_s, const uint64_t* expected_fingerprint,
                std::vector<double>* qps);

/// A snapshot file under the work directory, removed on destruction and
/// by the SIGINT/SIGTERM handler, so no exit path leaves it behind.
class SnapshotFile {
 public:
  explicit SnapshotFile(const std::string& dir);
  ~SnapshotFile();
  SnapshotFile(const SnapshotFile&) = delete;
  SnapshotFile& operator=(const SnapshotFile&) = delete;

  const std::string& path() const { return path_; }
  void Remove() const;

 private:
  std::string path_;
};

struct SnapshotStats {
  std::vector<double> save_s;
  std::vector<double> load_s;
  std::vector<double> open_s;  // SnapshotReader::Open (traced runs)
  double file_mb = 0.0;
  double global_index_mb = 0.0;
  double protocol_mb = 0.0;
};

/// Saves `engine` to `file`; in traced runs also times
/// SnapshotReader::Open on it and records the section sizes.
bool TimedSave(Run& run, const HdkSearchEngine& engine,
               const SnapshotFile& file, SnapshotStats* stats);

/// Loads `file` under `config`; nullptr on failure.
std::unique_ptr<HdkSearchEngine> TimedLoad(
    Run& run, const HdkEngineConfig& config,
    const hdk::corpus::DocumentStore& store, const SnapshotFile& file,
    SnapshotStats* stats);

/// `repeats` save/load round trips of `engine`; each loaded engine's
/// contents must equal `engine`'s.
void SnapshotRoundTrips(Run& run, const HdkSearchEngine& engine,
                        const HdkEngineConfig& config,
                        const hdk::corpus::DocumentStore& store, int repeats,
                        SnapshotStats* stats);

struct ChurnStats {
  std::vector<double> join_s;
  std::vector<double> leave_s;
  std::vector<double> sweep_s;
  std::vector<double> event_postings;     // traffic postings per batch
  std::vector<double> divergence_before;  // per sweep (traced runs)
  std::vector<hdk::p2p::GrowthStats> joins;
  std::vector<hdk::p2p::DepartureStats> departures;
  std::vector<hdk::sync::SyncStats> sweeps;
  StreamStats stream;
  size_t next_query = 0;
  hdk::DocId frontier = 0;  // one past the highest document ever indexed
};

/// Churn cycles on `engine` (built with ChurnConfig over the set-up's
/// first `stats->frontier` documents) until `budget_s` seconds have passed
/// and at least `min_cycles` ran. A cycle is one join wave of kWavePeers
/// peers with fresh documents, then kWavePeers single departures of the
/// oldest peer but the slow one; every membership batch is followed by
/// one anti-entropy sweep and a closed-loop stream of kChurnStreamQueries
/// hedged, deadline-bounded queries.
void RunChurnCycles(Run& run, Setup& setup, HdkSearchEngine& engine,
                    size_t min_cycles, double budget_s, ChurnStats* stats);

/// After one more sweep no replica may diverge, and the contents must
/// equal a from-scratch build over the surviving peer ranges.
void CheckChurnedEngine(Run& run, HdkSearchEngine& engine,
                        const hdk::corpus::DocumentStore& store);

/// Seconds since `start` (a steady_clock reading in seconds).
double SecondsSince(double start);
double NowSeconds();

}  // namespace hdkbench

#endif  // HDKBENCH_PHASES_H_
