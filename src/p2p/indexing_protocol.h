// The collaborative level-wise indexing protocol (paper Section 3.1):
//
//   for s = 1 .. s_max:
//     every peer computes its local size-s candidates (using the global
//     classifications it has been notified about), truncates posting lists
//     of locally non-discriminative keys to the local top-DFmax, and
//     inserts (key, local df, postings) into the global P2P index;
//     the responsible peers aggregate global document frequencies, keep
//     full postings for globally discriminative keys and top-DFmax
//     postings for NDKs, and notify every contributor of an NDK so that it
//     expands the key at level s+1.
//
// The protocol object is STATEFUL: after the initial Run() it retains every
// peer's local knowledge (NDK oracle; its contributions are recorded in the
// global index's key table), so the network can
// Grow() — the paper's evolution experiment, where peers join in waves and
// contribute new documents. A growth step runs the same level-wise protocol
// but only over the delta:
//
//   * terms that crossed the very-frequent threshold Ff are purged from
//     the key vocabulary (global preprocessing, like the Ff cutoff itself),
//   * published entries whose truncation depends on the average document
//     length are re-derived under the grown collection's avgdl,
//   * joining peers run all levels over their own documents,
//   * existing peers re-derive candidates only when they gained knowledge
//     (a key of theirs crossed DFmax), and insert only keys they have not
//     contributed yet,
//   * the global index reclassifies keys whose df crossed DFmax and
//     notifies every historical contributor so old peers expand them too.
//
// The result is posting-for-posting identical to a from-scratch run over
// the grown collection (asserted by the incremental-growth tests), at a
// fraction of the indexing traffic.
//
// All insertions, responses and notifications are routed through the
// overlay and recorded by the TrafficRecorder.
#ifndef HDKP2P_P2P_INDEXING_PROTOCOL_H_
#define HDKP2P_P2P_INDEXING_PROTOCOL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/params.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "corpus/document.h"
#include "corpus/stats.h"
#include "dht/overlay.h"
#include "hdk/candidate_builder.h"
#include "net/traffic.h"
#include "p2p/global_index.h"
#include "p2p/peer.h"

namespace hdk::p2p {

/// Per-level protocol statistics (cumulative across growth steps).
struct ProtocolLevelStats {
  uint32_t level = 0;
  uint64_t keys_inserted = 0;       // insertion messages (= candidate keys
                                    // summed over peers and growth steps)
  uint64_t postings_inserted = 0;   // postings carried by insertions
  uint64_t hdks = 0;                // current published classification
  uint64_t ndks = 0;
  uint64_t notifications = 0;
  hdk::CandidateBuildStats generation;
};

/// Whole-network report, kept current across Run() and every Grow().
struct IndexingReport {
  std::vector<ProtocolLevelStats> levels;
  uint64_t excluded_very_frequent_terms = 0;
  /// Postings inserted by each peer (paper Figure 4, per-peer indexing
  /// cost).
  std::vector<uint64_t> inserted_postings_per_peer;

  uint64_t TotalInsertedPostings() const;
};

/// What one growth step did (observability for benches and tests).
struct GrowthStats {
  uint64_t joined_peers = 0;
  uint64_t delta_documents = 0;
  /// Terms that crossed Ff and were purged from the key vocabulary.
  uint64_t new_very_frequent_terms = 0;
  uint64_t purged_keys = 0;
  /// Keys whose global df crossed DFmax (HDK -> NDK reclassifications).
  uint64_t reclassified_keys = 0;
  /// Published entries handed over because key-space responsibility moved.
  uint64_t migrated_keys = 0;
  /// Insert messages / postings transmitted during this step.
  uint64_t delta_insertions = 0;
  uint64_t delta_postings = 0;
  /// Existing peers that re-derived candidates because they gained
  /// knowledge.
  uint64_t rescanned_peers = 0;
};

/// Cumulative wall-clock split of the protocol's phases (observability
/// for the benches; never feeds results, so timing noise cannot perturb
/// determinism; snapshots keep only scan and merge):
///   * scan  — the parallel per-peer candidate scans including their
///             shard-buffered insertions,
///   * merge — the shard-parallel EndLevel classification/publication,
///   * join handover / purge / retruncate — a join's fragment handover
///             to the grown overlay with its replica reconciliation, the
///             purge of keys whose terms crossed Ff, and the avgdl
///             re-truncation,
///   * departure repair / diff / reconcile — a departure's in-place level
///             repair, its avgdl re-truncation plus handover and change
///             billing, and the replica reconciliation after it.
struct PhaseTimings {
  double scan_seconds = 0;
  double merge_seconds = 0;
  double join_handover_seconds = 0;
  double join_purge_seconds = 0;
  double join_retruncate_seconds = 0;
  double departure_repair_seconds = 0;
  double departure_diff_seconds = 0;
  double departure_reconcile_seconds = 0;
};

/// Runs the indexing protocol over a growing set of peers.
class HdkIndexingProtocol {
 public:
  /// \param params  HDK model parameters.
  /// \param store   the global collection (peers reference ranges of it;
  ///                it may grow between Run and Grow calls).
  /// \param overlay DHT overlay (outlives the protocol; grown by the
  ///                caller before Grow is invoked).
  /// \param traffic traffic sink (outlives the protocol).
  /// \param pool    thread pool the per-peer candidate scans (with their
  ///                shard-buffered insertions) and the sharded global
  ///                index's merge and repair paths fan out on (outlives
  ///                the protocol); nullptr runs the exact serial path.
  ///                Contributions land in per-task shard runs and every
  ///                level is classified in ascending-key order, so
  ///                parallel builds are posting-for-posting identical to
  ///                serial ones at any thread count.
  /// \param resilience fault injector / health / retry / replication
  ///                bundle handed to the DistributedGlobalIndex this
  ///                protocol creates in Run(). The default reproduces
  ///                the perfect-transport protocol byte for byte.
  HdkIndexingProtocol(const HdkParams& params,
                      const corpus::DocumentStore& store,
                      const dht::Overlay* overlay,
                      net::TrafficRecorder* traffic,
                      ThreadPool* pool = nullptr,
                      net::Resilience resilience = {});

  /// Executes the full protocol for peers holding the given [first, last)
  /// doc ranges (one entry per peer; peer ids are positional). `stats`
  /// must describe exactly the documents covered by the ranges. Returns
  /// the populated distributed index; the caller owns it, the protocol
  /// keeps a reference for later growth steps.
  Result<std::unique_ptr<DistributedGlobalIndex>> Run(
      const std::vector<std::pair<DocId, DocId>>& peer_ranges,
      const corpus::CollectionStats& stats);

  /// Incremental join: `new_ranges` (one per joining peer) must continue
  /// contiguously from the indexed document frontier, and the overlay must
  /// already contain the new peers (caller responsibility — see
  /// HdkSearchEngine::AddPeers). Grow hands the published fragments over
  /// to the grown overlay first (DistributedGlobalIndex::OnOverlayGrown).
  /// `stats` must describe the grown collection. Fills `growth` when
  /// non-null.
  Status Grow(const std::vector<std::pair<DocId, DocId>>& new_ranges,
              const corpus::CollectionStats& stats,
              GrowthStats* growth = nullptr);

  /// Departure (churn): peer `departing` leaves with its documents. The
  /// repair works in place — the key table and the surviving peers stay
  /// where they are. One pass drops the departed peer's contributions
  /// (its document range leaves every merged list) and hands its fragment
  /// over, and renumbers the peers above it; then,
  /// level by level, only the dirty keys are re-derived: the keys the
  /// departed peer contributed to, and the keys holding a contribution
  /// its survivor can no longer generate because it lost a fact below
  /// this level (a sub-key flipped back to HDK, or its contribution was
  /// retracted). Retracted contributions leave the key table, lost facts
  /// leave the survivor's oracle with one reverse notice each, and terms
  /// that dropped back under Ff re-enter the key
  /// vocabulary via targeted delta scans (the only insertions that
  /// travel). The result is posting-for-posting identical to a
  /// from-scratch build over the surviving document ranges (asserted by
  /// the membership-churn tests), and the repaired index, the traffic and
  /// every DepartureStats counter are identical at any thread and shard
  /// count.
  ///
  /// `stats` must describe the SURVIVING collection (ranges-based).
  /// `shrink_overlay` is invoked exactly once, before the repair starts —
  /// the caller owns the overlay, so it performs the actual RemovePeer
  /// there. Fills `departure` when non-null.
  Status Depart(PeerId departing, const corpus::CollectionStats& stats,
                const std::function<Status()>& shrink_overlay,
                DepartureStats* departure = nullptr);

  /// Cumulative report, current after every Run/Grow/Depart.
  const IndexingReport& report() const { return report_; }

  /// Cumulative wall-clock phase split across Run, every Grow and every
  /// Depart.
  const PhaseTimings& phase_timings() const { return phase_timings_; }

  size_t num_peers() const { return peers_.size(); }
  /// One past the highest indexed document.
  DocId indexed_documents() const { return indexed_docs_; }
  /// The [first, last) document range of every current peer, in peer-id
  /// order. After departures the union has holes — exactly the surviving
  /// collection a rebuild must cover.
  std::vector<std::pair<DocId, DocId>> peer_ranges() const;

  // -- snapshot support (engine/engine_snapshot) -----------------------

  /// Read access for the snapshot writer (serial sections only).
  std::span<const Peer> peers() const { return peers_; }
  const TermIdSet& very_frequent() const { return very_frequent_; }

  /// Restores a previously built protocol state on a freshly constructed
  /// protocol (snapshot load): adopts the peers with their local
  /// knowledge, the cumulative report/timings, the indexed-document
  /// frontier and the already-populated global index. After restoration
  /// Grow() and Depart() behave exactly as on the original instance.
  /// FailedPrecondition when Run() or a previous restore already
  /// populated this protocol.
  Status RestoreFromSnapshot(std::vector<Peer> peers,
                             TermIdSet very_frequent,
                             IndexingReport report, PhaseTimings timings,
                             DocId indexed_docs,
                             DistributedGlobalIndex* global);

 private:
  /// Refreshes the very-frequent term set from `stats`; returns the terms
  /// that newly crossed Ff and adds those that fell back under it to
  /// `dropped` when set.
  TermIdSet RefreshVeryFrequent(const corpus::CollectionStats& stats,
                                TermIdSet* dropped = nullptr);

  /// Refreshes the report's per-level HDK/NDK counts from the published
  /// index (a growth step or departure may reclassify keys inserted long
  /// ago).
  void CountPublishedKeys();

  /// The shared level loop. Peers with id >= `first_new_peer` run a full
  /// build; older peers participate only at levels >= 2 and only while
  /// they hold fresh knowledge, generating and inserting only the
  /// candidate delta that knowledge makes newly generable.
  void RunLevels(const corpus::CollectionStats& stats, size_t first_new_peer,
                 GrowthStats* growth);

  const HdkParams params_;
  const corpus::DocumentStore& store_;
  const dht::Overlay* overlay_;
  net::TrafficRecorder* traffic_;
  ThreadPool* pool_;
  net::Resilience resilience_;
  DistributedGlobalIndex* global_ = nullptr;  // borrowed after Run
  std::vector<Peer> peers_;
  TermIdSet very_frequent_;
  IndexingReport report_;
  PhaseTimings phase_timings_;
  DocId indexed_docs_ = 0;
};

}  // namespace hdk::p2p

#endif  // HDKP2P_P2P_INDEXING_PROTOCOL_H_
