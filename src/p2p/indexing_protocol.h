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
// peer's local knowledge (NDK oracle, published keys), so the network can
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
//     (a key of theirs crossed DFmax), and insert only unpublished keys,
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

/// Cumulative wall-clock split of the protocol's two build phases
/// (observability for the shard bench; never feeds results, so timing
/// noise cannot perturb determinism):
///   * scan  — the parallel per-peer candidate scans including their
///             shard-buffered insertions,
///   * merge — the shard-parallel EndLevel classification/publication.
struct PhaseTimings {
  double scan_seconds = 0;
  double merge_seconds = 0;
};

/// What one departure repair did (observability for benches and tests).
struct DepartureStats {
  PeerId departed = kInvalidPeer;
  /// The departed peer's dropped ledger share.
  uint64_t removed_contributions = 0;
  uint64_t removed_postings = 0;
  /// Keys that ceased to exist (no surviving contributor).
  uint64_t erased_keys = 0;
  /// Survivor contributions retracted because the knowledge that
  /// generated them is gone (a sub-key flipped back to HDK).
  uint64_t retracted_keys = 0;
  /// NDK -> HDK reverse reclassifications (df fell back under DFmax).
  uint64_t reverse_reclassified = 0;
  /// Keys whose published entry was re-derived in place (un-truncation,
  /// avgdl shift) / whose fragment moved to a new responsible peer.
  uint64_t repaired_keys = 0;
  uint64_t migrated_keys = 0;
  /// Postings carried by the recorded churn messages.
  uint64_t moved_postings = 0;
  /// Terms that dropped back under Ff and re-entered the key vocabulary.
  uint64_t readmitted_terms = 0;
  /// Reverse notices: facts surviving contributors had to forget.
  uint64_t forget_notifications = 0;
  /// Genuinely new insertions the repair transmitted (re-admission keys).
  uint64_t repair_insertions = 0;
  uint64_t repair_postings = 0;
  /// Survivors that ran targeted delta scans (re-admission only).
  uint64_t rescanned_peers = 0;
  /// What the post-repair anti-entropy reconciliation shipped (see
  /// sync/sync.h; all-zero when replication == 1).
  sync::SyncStats replica_sync;
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
  /// \param pool    thread pool the per-peer candidate scans and
  ///                departure replays (with their shard-buffered
  ///                insertions) and the sharded global index's merge
  ///                paths fan out on (outlives the protocol); nullptr
  ///                runs the exact serial path.
  ///                Contributions land in per-key shard buffers and every
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
  /// HdkSearchEngine::AddPeers). `stats` must describe the grown
  /// collection. Fills protocol-level fields of `growth` when non-null.
  Status Grow(const std::vector<std::pair<DocId, DocId>>& new_ranges,
              const corpus::CollectionStats& stats,
              GrowthStats* growth = nullptr);

  /// Departure (churn): peer `departing` leaves with its documents. The
  /// repair is ledger-driven: the departed peer's contributions are
  /// dropped, every surviving peer's candidate sets are re-derived level
  /// by level FROM THE CONTRIBUTION LEDGER (no document re-scans — a
  /// surviving peer's kept posting lists are bit-identical because every
  /// fact their window events consume concerns the key's own
  /// sub-structure), keys whose knowledge basis vanished are retracted,
  /// keys whose df fell back under DFmax are reverse-reclassified to full
  /// HDK postings, and terms that dropped back under Ff re-enter the key
  /// vocabulary via targeted delta scans. The result is posting-for-
  /// posting identical to a from-scratch build over the surviving
  /// document ranges (asserted by the membership-churn tests).
  ///
  /// Each level's replay fans the surviving peers out on the pool like
  /// Run/Grow's scan waves: every task owns one peer and its counters,
  /// which are reduced in ascending peer order, so the repaired index,
  /// the traffic and every DepartureStats counter are identical at any
  /// thread and shard count.
  ///
  /// `stats` must describe the SURVIVING collection (ranges-based).
  /// `shrink_overlay` is invoked exactly once, after the pre-departure
  /// placement has been snapshotted — the caller owns the overlay, so it
  /// performs the actual RemovePeer there. Fills `departure` when
  /// non-null.
  Status Depart(PeerId departing, const corpus::CollectionStats& stats,
                const std::function<Status()>& shrink_overlay,
                DepartureStats* departure = nullptr);

  /// Cumulative report, current after every Run/Grow/Depart.
  const IndexingReport& report() const { return report_; }

  /// Cumulative scan/merge wall-clock split across Run and every Grow.
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
  /// that newly crossed Ff.
  std::vector<TermId> RefreshVeryFrequent(const corpus::CollectionStats& stats);

  /// The shared level loop. Peers with id >= `first_new_peer` run a full
  /// build; older peers participate only at levels >= 2 and only while
  /// they hold fresh knowledge, generating and inserting only the
  /// candidate delta that knowledge makes newly generable.
  void RunLevels(const corpus::CollectionStats& stats, size_t first_new_peer,
                 GrowthStats* growth);

  /// The per-candidate insert step shared by RunLevels and the departure
  /// replay: ships `peer`'s full local list for the size-`s` key to the
  /// global index and records the key in the peer's published
  /// bookkeeping. Safe to call concurrently for distinct peers once
  /// EnsureCapacity() ran. Returns the postings transmitted.
  uint64_t InsertCandidate(Peer& peer, uint32_t s, const hdk::TermKey& key,
                           uint64_t key_hash, index::PostingList full,
                           double avgdl, bool record_traffic);

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
