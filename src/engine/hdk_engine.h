// HdkSearchEngine — the paper's system behind the unified SearchEngine
// interface: a structured P2P network whose peers collaboratively build a
// global highly-discriminative-key index and answer multi-term queries
// with bounded retrieval traffic. Supports the full membership lifecycle:
// joins index only the document delta (paper's evolution experiment) and
// departures repair the index in place (contribution purge, retraction,
// reverse DFmax-reclassification, fragment handover, Ff re-admission) — in
// both directions the index stays posting-for-posting identical to a
// from-scratch build over the current document ranges.
//
// See engine/search_engine.h for the interface quickstart; construct via
// MakeEngine(EngineKind::kHdk, ...) or HdkSearchEngine::Build.
#ifndef HDKP2P_ENGINE_HDK_ENGINE_H_
#define HDKP2P_ENGINE_HDK_ENGINE_H_

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "corpus/document.h"
#include "corpus/stats.h"
#include "engine/engine_config.h"
#include "engine/partition.h"
#include "engine/search_engine.h"
#include "net/fault.h"
#include "net/traffic.h"
#include "p2p/global_index.h"
#include "p2p/indexing_protocol.h"
#include "p2p/retrieval.h"

namespace hdk::store {
class SnapshotReader;
}

namespace hdk::engine {

class HdkSearchEngine;

/// The pre-EngineConfig name, kept for the frozen hdkbench harness.
using HdkEngineConfig = EngineConfig;

/// Snapshot codec entry points (defined in engine/engine_snapshot.cc;
/// friends of HdkSearchEngine so they can serialize its built state and
/// assemble a restored instance).
Status SaveEngineSnapshot(const HdkSearchEngine& engine,
                          const std::string& path);
Result<std::unique_ptr<HdkSearchEngine>> LoadEngineSnapshot(
    const EngineConfig& config, const corpus::DocumentStore& store,
    const std::string& path);

/// The assembled HDK P2P retrieval engine.
class HdkSearchEngine : public SearchEngine {
 public:
  /// Builds the network, runs the distributed indexing protocol over the
  /// given peer document ranges, and returns a ready-to-query engine.
  /// `store` must outlive the engine.
  static Result<std::unique_ptr<HdkSearchEngine>> Build(
      const EngineConfig& config, const corpus::DocumentStore& store,
      std::vector<std::pair<DocId, DocId>> peer_ranges);

  // -- SearchEngine ----------------------------------------------------

  std::string_view name() const override { return "hdk"; }

  /// Executes a query from `origin` (kInvalidPeer rotates across peers)
  /// and returns the ranked top-k with cost accounting. The options carry
  /// the per-query deadline budget and hedge delay (see
  /// common/search_options.h).
  SearchResponse Search(std::span<const TermId> query, size_t k,
                        const SearchOptions& options, PeerId origin) override;
  using SearchEngine::Search;
  using SearchEngine::SearchBatch;

  /// Joins run the delta indexing protocol (new documents indexed,
  /// key-space handover, Ff purge, DFmax reclassification); departures
  /// repair the index in place (contribution purge, retraction, reverse
  /// reclassification, fragment handover, Ff re-admission)
  /// — see p2p/indexing_protocol.h. `store` must be the same store the
  /// engine was built on, grown in place.
  Status ApplyMembership(const corpus::DocumentStore& store,
                         std::span<const MembershipEvent> events) override;
  using SearchEngine::ApplyMembership;

  size_t num_peers() const override { return overlay_->num_peers(); }
  uint64_t num_documents() const override {
    return stats_->num_documents();
  }

  /// Average postings stored per peer (Figure 3 metric).
  double StoredPostingsPerPeer() const override;

  /// Average postings inserted per peer during indexing (Figure 4 metric).
  double InsertedPostingsPerPeer() const override;

  const net::TrafficRecorder* traffic() const override {
    return traffic_.get();
  }

  /// Installs (or replaces) the transport fault plan on the engine's
  /// own injector.
  Status InstallFaultPlan(const net::FaultPlan& plan) override {
    injector_.Install(plan);
    return Status::OK();
  }

  /// Persists the complete built state (key tables, global index shards,
  /// per-peer knowledge, overlay, traffic) to a single snapshot file;
  /// LoadEngineSnapshot restores a fingerprint-identical engine from it
  /// in milliseconds. Delegates to SaveEngineSnapshot.
  Status SaveSnapshot(const std::string& path) const override;

  /// One anti-entropy sweep over the replica pairs (all-zero stats when
  /// replication == 1). Delegates to
  /// DistributedGlobalIndex::ReconcileReplicas.
  Result<sync::SyncStats> RunAntiEntropy() override;

  // -- HDK-specific observability --------------------------------------

  /// The indexing run's statistics (per-level candidates/HDKs/NDKs,
  /// per-peer inserted postings), cumulative across growth steps.
  const p2p::IndexingReport& indexing_report() const {
    return protocol_->report();
  }

  /// Cumulative scan-vs-merge wall-clock split of the build and every
  /// growth wave (the shard bench's per-phase metric).
  const p2p::PhaseTimings& phase_timings() const {
    return protocol_->phase_timings();
  }

  /// What the most recent join wave did (reclassified keys, purged
  /// very-frequent terms, migrated fragments, delta traffic).
  const p2p::GrowthStats& last_growth() const { return last_growth_; }

  /// What the most recent departure repair did (removed contributions,
  /// retractions, reverse reclassifications, re-replication).
  const p2p::DepartureStats& last_departure() const {
    return last_departure_;
  }

  /// Summary of the most recent ApplyMembership batch.
  struct MembershipSummary {
    uint64_t events = 0;
    uint64_t joined_peers = 0;
    uint64_t departed_peers = 0;
  };
  const MembershipSummary& last_membership() const {
    return last_membership_;
  }

  /// The [first, last) document range of every current peer — after
  /// churn, the union has holes; a from-scratch reference build must
  /// cover exactly these ranges.
  std::vector<DocRange> peer_ranges() const {
    return protocol_->peer_ranges();
  }

  // -- fault tolerance -------------------------------------------------

  /// The engine's own fault injector (tests/benches kill peers or
  /// install plans through it) and the strain tracker that orders
  /// replica failover.
  net::FaultInjector& fault_injector() { return injector_; }
  const net::FaultInjector& fault_injector() const { return injector_; }
  const net::PeerHealth& peer_health() const { return health_; }

  /// Converts every hard-failed peer (the injector reports it dead)
  /// into a standard departure: evicted through ApplyMembership Leave
  /// events in descending peer-id order (so earlier removals don't
  /// renumber later ones), which runs the in-place departure repair.
  /// Returns the number of evicted peers.
  ///
  /// The result's contents equal a fault-free build over the survivors,
  /// even when a peer died during the build: a contribution routed to a
  /// dead owner, and an NDK notification sent to a dead contributor,
  /// are recorded anyway (unbilled), so the departure repair re-routes
  /// them like any other. Traffic differs from the clean build's.
  Result<size_t> EvictDeadPeers(const corpus::DocumentStore& store);

  net::TrafficRecorder& mutable_traffic() { return *traffic_; }
  const p2p::DistributedGlobalIndex& global_index() const { return *global_; }
  /// The indexing protocol, with every peer's local knowledge (tests
  /// compare it against a from-scratch build).
  const p2p::HdkIndexingProtocol& protocol() const { return *protocol_; }
  const corpus::CollectionStats& collection_stats() const { return *stats_; }
  const EngineConfig& config() const { return config_; }

 protected:
  /// See OriginRotation: race-free rotation, departure-safe origins.
  PeerId AcquireOrigin() override {
    return next_origin_.Next(num_peers());
  }
  ThreadPool* batch_pool() const override { return pool_.get(); }

 private:
  friend Status SaveEngineSnapshot(const HdkSearchEngine& engine,
                                   const std::string& path);
  friend Result<std::unique_ptr<HdkSearchEngine>> LoadEngineSnapshot(
      const EngineConfig& config, const corpus::DocumentStore& store,
      const std::string& path);

  HdkSearchEngine() = default;

  /// Pre-validates a whole event batch against the current state — a
  /// rejected batch leaves the engine untouched.
  Status ValidateEvents(const corpus::DocumentStore& store,
                        std::span<const MembershipEvent> events) const;
  /// One coalesced join wave / one departure.
  Status ApplyJoinWave(const std::vector<DocRange>& new_ranges);
  Status ApplyDeparture(PeerId peer);

  /// Installs config_.faults on the engine's injector and returns the
  /// transport bundle the protocol and the global index send through
  /// (shared by Build and LoadEngineSnapshot).
  net::Resilience InstallResilience();

  EngineConfig config_;
  /// Transport fault state, owned by the engine and handed to the
  /// protocol/index as a net::Resilience bundle. Inert (and free) until
  /// a plan is installed.
  net::FaultInjector injector_;
  net::PeerHealth health_;
  /// Set only on snapshot-restored engines: keeps the snapshot's mmap
  /// alive, because restored posting lists (published lists, NDK merged
  /// lists, kept lists) borrow their elements straight from the mapped
  /// file until first mutation (see index::PostingList).
  std::shared_ptr<store::SnapshotReader> snapshot_backing_;
  const corpus::DocumentStore* store_ = nullptr;
  std::unique_ptr<corpus::CollectionStats> stats_;
  std::unique_ptr<ThreadPool> pool_;  // nullptr = serial
  std::unique_ptr<dht::Overlay> overlay_;
  std::unique_ptr<net::TrafficRecorder> traffic_;
  std::unique_ptr<p2p::HdkIndexingProtocol> protocol_;
  std::unique_ptr<p2p::DistributedGlobalIndex> global_;
  std::unique_ptr<p2p::HdkRetriever> retriever_;
  p2p::GrowthStats last_growth_;
  p2p::DepartureStats last_departure_;
  MembershipSummary last_membership_;
  OriginRotation next_origin_;
};

}  // namespace hdk::engine

#endif  // HDKP2P_ENGINE_HDK_ENGINE_H_
