// The distributed global key -> postings index maintained in the DHT
// (paper Section 3: each peer maintains the (k, PL(k)) pairs the DHT
// allocates to it, which are generally NOT the keys extracted from its own
// local documents).
//
// Responsibilities:
//   * placement: key -> responsible peer via the overlay (hash of the key),
//   * aggregation: merging per-peer local posting lists and local document
//     frequencies into global ones,
//   * classification: HDK (global df <= DFmax, full postings) vs NDK
//     (global df > DFmax, postings truncated to the top-DFmax best),
//   * expansion notifications to the peers that contributed an NDK,
//   * traffic accounting for every message,
//   * incremental growth: when peers join with new documents, the index
//     re-derives the published state of every affected key — including
//     HDK -> NDK reclassification of keys whose global df crossed DFmax —
//     so that the grown index is posting-for-posting identical to a
//     from-scratch build over the larger collection.
//
// To support the growth path the index keeps, per key, the CONTRIBUTION
// LEDGER: each contributor's full (untruncated) local posting list. This is
// simulation bookkeeping — in the real network that data simply stays on
// the contributing peer, which re-sends or re-truncates on request; here it
// lets the simulator recompute any published entry deterministically. The
// published per-peer fragments and all recorded traffic continue to model
// exactly what the protocol transmits and stores.
//
// SHARDING: the index is internally partitioned into N shards by the key's
// placement hash — the same hash that assigns the key to its responsible
// peer, so a key's pending contributions, ledger entry and published
// fragment slot all live on exactly one shard and never move between
// shards (overlay growth re-places keys across PEERS, and that handover
// happens within the key's shard). InsertPostings routes each
// contribution to its shard under a per-shard mutex (the protocol's
// parallel per-peer scan waves insert concurrently without a global
// lock), and the heavy merge paths — EndLevel, Retruncate,
// OnOverlayGrown, EraseKeysContaining and the in-place departure repair
// — fan out shard-wise on the thread pool with zero cross-shard
// contention. Every shard processes its keys in ascending-key order and
// the per-shard partial outcomes are reduced in deterministic (ascending
// key, then ascending peer) order, so published postings, notifications,
// traffic counters and reclassification counts are identical for every
// shard and thread count; with no pool the index runs one shard on the
// caller — the exact serial path.
#ifndef HDKP2P_P2P_GLOBAL_INDEX_H_
#define HDKP2P_P2P_GLOBAL_INDEX_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/params.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "dht/overlay.h"
#include "hdk/candidate_builder.h"
#include "hdk/indexer.h"
#include "hdk/key.h"
#include "index/posting.h"
#include "net/fault.h"
#include "net/traffic.h"
#include "sync/sync.h"

namespace hdk::p2p {

/// Outcome of finishing one indexing level.
struct LevelOutcome {
  /// Keys classified non-discriminative this level, with the contributors
  /// that were notified. Ascending key order; recipients ascending.
  std::vector<std::pair<hdk::TermKey, std::vector<PeerId>>> notifications;
  uint64_t hdks = 0;
  uint64_t ndks = 0;
  /// Notification messages sent.
  uint64_t notification_messages = 0;
  /// Keys that were published as HDK earlier and crossed DFmax during this
  /// level (incremental growth only; always 0 on the initial build).
  uint64_t reclassified = 0;
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

/// The DHT-distributed global index.
class DistributedGlobalIndex {
 public:
  /// One contributor's full local posting list (local df == full.size()).
  struct Contribution {
    PeerId peer = kInvalidPeer;
    index::PostingList full;
  };

  /// Everything ever contributed for one key, plus published-state flags
  /// and the incrementally maintained merge of the locally-truncated
  /// contributions (what publishing derives the fragment entry from —
  /// caching it makes EndLevel cost proportional to the NEW contributions
  /// instead of the key's whole history). Public because the snapshot
  /// codec (engine/engine_snapshot) persists ledger entries verbatim.
  struct LedgerEntry {
    std::vector<Contribution> contributions;  // ascending peer id
    Freq global_df = 0;
    index::PostingList merged_locals;
    bool published_ndk = false;
    /// True when some truncation (local or global) shapes the published
    /// entry — only those entries depend on avgdl.
    bool truncation_sensitive = false;
  };

  /// An in-place departure repair from BeginDeparture to FinishDeparture.
  /// The ledger and the fragments stay where they are; the baseline only
  /// remembers what the repair still has to revisit (the keys the
  /// departed peer contributed to) and to bill (fragment handovers and
  /// entries whose published content changed).
  struct DepartureBaseline {
    /// A published key the departure moved or re-derived, billed by
    /// FinishDeparture.
    struct Change {
      /// The fragment moved; `from` is the surviving old owner, or
      /// kInvalidPeer when the departed peer hosted it.
      bool migrated = false;
      PeerId from = kInvalidPeer;
      /// The published content changed; `was_ndk` is the classification
      /// before the departure.
      bool changed = false;
      bool was_ndk = false;
    };
    /// One shard's slice. Ledger positions are stable through the
    /// repair: emptied entries are only erased by FinishDeparture, and
    /// re-admission keys are appended.
    struct ShardRepair {
      /// dirty[s - 1]: ledger positions of the size-s keys the departed
      /// peer contributed to.
      std::vector<std::vector<uint32_t>> dirty;
      hdk::KeyMap<Change> changes;
      /// Keys left without a surviving contributor.
      uint64_t erased_keys = 0;
    };
    std::vector<ShardRepair> shards;
  };

  /// What one level of the in-place departure repair changed for the
  /// surviving peers (see RepairLevel), as (peer, key) pairs.
  struct LevelRepair {
    /// Surviving contributions dropped because the peer can no longer
    /// generate the key.
    std::vector<std::pair<PeerId, hdk::TermKey>> retracted;
    /// Facts a surviving contributor loses: the key is no longer a
    /// non-discriminative key it contributes to.
    std::vector<std::pair<PeerId, hdk::TermKey>> lost;
  };

  /// \param overlay    peer placement/routing; must outlive the index.
  /// \param traffic    message accounting sink; must outlive the index.
  /// \param pool       thread pool the shard-parallel merge paths fan out
  ///                   on (may be nullptr: everything runs inline on the
  ///                   caller — the exact serial path). Must outlive the
  ///                   index.
  /// \param num_shards shard count; 0 applies the heuristic
  ///                   DefaultShardCount(pool). Any value produces
  ///                   identical observable state (see file comment).
  /// \param resilience fault injector / health tracker / replication
  ///                   factor / sync tuning (see net/fault.h). The default
  ///                   — no injector, replication 1 — reproduces the
  ///                   perfect-transport engine byte for byte. The
  ///                   injector and health pointers, when set, must
  ///                   outlive the index.
  DistributedGlobalIndex(const dht::Overlay* overlay,
                         net::TrafficRecorder* traffic,
                         ThreadPool* pool = nullptr, size_t num_shards = 0,
                         net::Resilience resilience = {});

  /// The shard-count heuristic: 1 without a pool (serial path), otherwise
  /// 4x the worker count rounded up to a power of two (static chunking
  /// over an oversubscribed shard set smooths per-shard load imbalance),
  /// capped at 64.
  static size_t DefaultShardCount(const ThreadPool* pool);

  size_t num_shards() const { return shards_.size(); }

  /// The peer responsible for a key. The overload taking the key's
  /// Hash64 (= its DHT ring id) lets hash-carrying call sites route
  /// without re-hashing the term array.
  PeerId ResponsiblePeer(const hdk::TermKey& key) const;
  PeerId ResponsiblePeerHashed(uint64_t key_hash) const;

  /// Grows the per-peer fragment slots, the traffic recorder's peer
  /// counters and the fault injector's and health tracker's per-peer
  /// state (net/fault.h sizing contract) to the overlay's current size.
  /// Serial sections only; the protocol calls it once before fanning
  /// insertions out, so that concurrent InsertPostings and queries never
  /// resize.
  void EnsureCapacity();

  /// Indexing-time insertion from peer `src`: the peer's FULL local
  /// posting list for `key` (the local document frequency is its size).
  /// Sender-side truncation of locally non-discriminative keys (local df >
  /// DFmax) to the local top-DFmax by TruncationScore is applied here: the
  /// recorded InsertPostings message carries only the truncated list,
  /// exactly as in the paper's protocol. The full list is retained in the
  /// contribution ledger (see the file comment). Returns the number of
  /// postings actually transmitted.
  ///
  /// THREAD SAFETY: may be called concurrently (the parallel scan waves
  /// do) once EnsureCapacity() has run for the current overlay size; the
  /// contribution is buffered on its key's shard under the shard mutex.
  ///
  /// The hash-carrying overload takes `key_hash` = key.Hash64(): the scan
  /// wave reads it out of the candidate map's hash cache, so overlay
  /// routing, shard choice and the pending-buffer probe all reuse one
  /// hash computation. The convenience overload hashes the key itself.
  uint64_t InsertPostings(PeerId src, const hdk::TermKey& key,
                          uint64_t key_hash, index::PostingList full_local,
                          const HdkParams& params);
  uint64_t InsertPostings(PeerId src, const hdk::TermKey& key,
                          index::PostingList full_local,
                          const HdkParams& params) {
    return InsertPostings(src, key, key.Hash64(), std::move(full_local),
                          params);
  }

  /// Classifies all keys that received contributions since the last
  /// EndLevel call: merges them into the ledger, re-derives the published
  /// entry (HDK full postings / NDK top-DFmax postings, score normalized
  /// with `avg_doc_length`), places it on the responsible peer's fragment
  /// and — when `notify_contributors` is set — sends NdkNotification
  /// messages. A key already published as NDK notifies only its NEW
  /// contributors; a key that just crossed DFmax (HDK -> NDK, or a new
  /// key that is born non-discriminative) notifies ALL contributors.
  /// Notifications are pointless at the last level (size filtering stops
  /// expansion), so the protocol disables them there. The departure
  /// repair passes `record_traffic = false` and accounts the genuinely
  /// travelling notifications itself.
  /// Runs shard-parallel on the pool; see the file comment for the
  /// determinism contract.
  LevelOutcome EndLevel(const HdkParams& params, double avg_doc_length,
                        bool notify_contributors = true,
                        bool record_traffic = true);

  // -- departure (churn) support ---------------------------------------

  /// Begins an in-place departure repair. Must be called AFTER the
  /// overlay dropped peer `departing` (and renumbered the ids above it
  /// down by one). One shard-parallel pass:
  ///   * removes the departed peer's contributions from the ledger,
  ///     renumbers the surviving contributors past it and notes every
  ///     key it touched as dirty at that key's level;
  ///   * drops the departed peer's fragment and replica slots and hands
  ///     every fragment entry whose responsible peer changed to its new
  ///     owner (the departed peer's whole fragment included), noting the
  ///     handovers for FinishDeparture to bill.
  /// On a replicated index the replica copies stay as they were until
  /// FinishDeparture, so the following reconciliation ships only what
  /// the departure changed.
  /// Fills `stats`' departed peer and its dropped ledger share.
  DepartureBaseline BeginDeparture(PeerId departing, DepartureStats* stats);

  /// Repairs the size-`level` keys in place. A key is dirty when the
  /// departed peer contributed to it, or — when `suspect` is set — when
  /// `suspect(key)` holds and some contributor no longer `keeps(peer,
  /// key)` (it lost a fact the key's generation needs). For each dirty
  /// key the contributions `keeps` rejects are retracted, and the entry
  /// is re-derived under `avg_doc_length` and republished, or erased when
  /// no contributor is left. `facts` says whether the contributors of a
  /// non-discriminative key at this level hold it as a fact (every level
  /// below s_max). Nothing is recorded on the wire; `keeps` and `suspect`
  /// are called concurrently and must only read. Runs shard-parallel.
  LevelRepair RepairLevel(
      DepartureBaseline& baseline, uint32_t level, const HdkParams& params,
      double avg_doc_length, bool facts,
      const std::function<bool(const hdk::TermKey&)>& suspect,
      const std::function<bool(PeerId, const hdk::TermKey&)>& keeps);

  /// Ends the repair: re-derives every remaining avgdl-dependent entry
  /// under `avg_doc_length`, erases the emptied ledger entries and bills
  /// the churn traffic — one kMaintenance message per key whose fragment
  /// moved (from the old owner, or from the lowest-id surviving
  /// contributor when the departed peer hosted it) or whose published
  /// content changed in place (from that contributor), carrying the
  /// repaired entry's postings. Replica copies are live again afterwards;
  /// the caller reconciles them (ReconcileReplicas). Runs shard-parallel
  /// and fills `stats`' erased, reverse-reclassified, migrated, repaired
  /// and moved-postings counters.
  void FinishDeparture(DepartureBaseline baseline, const HdkParams& params,
                       double avg_doc_length, DepartureStats* stats);

  /// Removes every key containing one of `terms` from the ledger and the
  /// fragments in one pass — used when terms cross the very-frequent
  /// threshold Ff as the collection grows (a from-scratch build over the
  /// grown collection excludes them from the key vocabulary). Like the Ff
  /// cutoff itself, this is treated as global preprocessing outside the
  /// paper's traffic accounting. Returns the number of erased keys.
  uint64_t EraseKeysContaining(const TermIdSet& terms);

  /// Re-derives every published entry whose truncation depends on the
  /// average document length (local or global posting-list truncation
  /// active). Called when the collection grew and avgdl shifted, so that
  /// the published state matches what a from-scratch build over the grown
  /// collection would produce. Simulation bookkeeping; no traffic.
  /// Runs shard-parallel.
  void Retruncate(const HdkParams& params, double avg_doc_length);

  /// Re-places published entries after the overlay gained peers: every key
  /// whose responsible peer changed is handed over to its new owner, and
  /// the handover is recorded as one kMaintenance message carrying the
  /// published postings (1 hop: the old owner learns the new owner during
  /// the join). A key's shard is placement-hash based, so every handover
  /// stays within its shard and the scan runs shard-parallel. Returns the
  /// number of migrated keys.
  uint64_t OnOverlayGrown();

  /// Retrieval probe from peer `src`: routes a KeyProbe message to the
  /// responsible peer; when the key exists, a PostingsResponse carrying
  /// the posting-list payload is recorded and the entry returned.
  /// Returns nullptr (response with zero postings) when the key is absent.
  const hdk::KeyEntry* FetchFrom(PeerId src, const hdk::TermKey& key) const;

  /// Outcome of one failure-aware key fetch (see FetchFromResilient).
  struct FetchResult {
    /// The published entry; nullptr when the key is ABSENT (a valid,
    /// delivered answer) or unreachable.
    const hdk::KeyEntry* entry = nullptr;
    /// True when every holder's round trip failed after retries — the
    /// query must degrade (entry is nullptr but the key may exist).
    bool unreachable = false;
    uint32_t retries = 0;
    uint32_t failovers = 0;
    uint64_t latency_ticks = 0;
    /// Tail-latency armor accounting (see common/search_options.h):
    /// hedged reads fired / won, and whether the deadline budget ran out
    /// mid-fetch (the caller degrades the query).
    uint32_t hedges_fired = 0;
    uint32_t hedge_wins = 0;
    bool deadline_exhausted = false;
  };

  /// Failure-aware FetchFrom: probes the responsible peer with bounded
  /// retry + exponential backoff (net::kMaxSendAttempts); when its round
  /// trip fails, fails over to the key's replica holders in health order
  /// (non-suspect holders first). With an inactive injector this records
  /// exactly the two messages FetchFrom records and ignores the overload
  /// knobs entirely (zero simulated time passes).
  ///
  /// Overload armor, threaded down from SearchOptions (both off by
  /// default, which reproduces the plain failover walk tick for tick):
  ///   * hedged reads: when the primary leg's simulated completion time
  ///     exceeds `hedge_delay_ticks` (0 = off), the same probe also runs
  ///     against the next available holder and the earlier
  ///     (simulated-time) answer wins — both legs' traffic is recorded,
  ///     but latency_ticks and the budget advance only by the winner's
  ///     effective time;
  ///   * deadline `budget` (null = unlimited): legs charge it and stop
  ///     retrying when it exhausts; an exhausted budget ends the
  ///     failover walk.
  FetchResult FetchFromResilient(PeerId src, const hdk::TermKey& key,
                                 uint32_t hedge_delay_ticks = 0,
                                 DeadlineBudget* budget = nullptr) const;

  /// The key's fragment holders under the current overlay: the
  /// responsible peer first, then `replication - 1` distinct peers
  /// derived by salted re-hashing of the placement hash. Deterministic
  /// for a fixed overlay.
  dht::HolderSet HoldersFor(uint64_t key_hash) const;

  /// Re-derives every replica map from the primary fragments (no
  /// traffic). Called after bulk state adoption (snapshot load); a no-op
  /// when replication == 1.
  void RebuildReplicas();

  // -- anti-entropy replica sync (sync/) --------------------------------

  /// Reconciles every (primary, holder) replica pair against the primary
  /// fragments: each pair exchanges a strata estimator + invertible Bloom
  /// filter and ships only the decoded difference, falling back to a full
  /// bucket re-send when the sketch fails to decode. Joins and departures
  /// run it after their repair; RunAntiEntropy runs it on demand. Pairs
  /// whose primary or holder is hard-dead, or whose exchange loses a leg
  /// after retries, are skipped whole — a pair is repaired atomically or
  /// not at all, so reconciliation can degrade but never diverge. Runs
  /// holder-parallel on the pool; traffic, repairs and stats are
  /// deterministic for every thread/shard count.
  /// The returned per-call stats are also accumulated into sync_stats().
  sync::SyncStats ReconcileReplicas(bool record_traffic);

  /// Brute-force divergence count (test/diagnostic helper, no traffic):
  /// the number of (holder, key) replica slots that differ from what
  /// RebuildReplicas would derive — missing, extra, or stale-content.
  uint64_t CountReplicaDivergence() const;

  /// Cumulative reconciliation stats across all ReconcileReplicas calls.
  const sync::SyncStats& sync_stats() const { return sync_stats_; }

  /// Best-effort replica maintenance messages that were lost in flight
  /// (under an active fault plan): the divergence RunAntiEntropy is
  /// there to detect and heal.
  uint64_t missed_replica_pushes() const {
    return missed_replica_pushes_.load(std::memory_order_relaxed);
  }
  uint64_t missed_replica_forgets() const {
    return missed_replica_forgets_.load(std::memory_order_relaxed);
  }

  /// Indexing-side losses that became permanent: contributions /
  /// NDK notifications addressed to a hard-dead peer. They are dropped
  /// before reaching the ledger, so evicting the peer later does not
  /// bring them back (see ROADMAP item 1(a)).
  uint64_t lost_contributions() const {
    return lost_contributions_.load(std::memory_order_relaxed);
  }
  uint64_t lost_notifications() const {
    return lost_notifications_.load(std::memory_order_relaxed);
  }

  const net::Resilience& resilience() const { return res_; }

  /// Traffic-free lookup (tests, diagnostics).
  const hdk::KeyEntry* Peek(const hdk::TermKey& key) const;

  /// Stored postings on one peer's fragment / across all fragments
  /// (the paper's Figure 3 metric).
  uint64_t StoredPostingsAt(PeerId peer) const;
  uint64_t TotalStoredPostings() const;

  /// Number of keys stored on one peer / overall.
  uint64_t KeysAt(PeerId peer) const;
  uint64_t TotalKeys() const;

  /// Exact published-classification counts for keys of size `level`
  /// (0 = all sizes).
  void CountKeys(uint32_t level, uint64_t* hdks, uint64_t* ndks) const;

  /// Flattens the fragments into logical contents (identical, by
  /// construction, to what the centralized indexer produces — asserted by
  /// the integration tests).
  hdk::HdkIndexContents ExportContents() const;

  const dht::Overlay& overlay() const { return *overlay_; }

  // -- snapshot support (engine/engine_snapshot) -----------------------

  /// True while contributions inserted since the last EndLevel call are
  /// still buffered — a snapshot taken then would lose them, so saving is
  /// refused.
  bool HasPendingContributions() const;

  /// Read access to one shard's ledger / one peer's fragment slice on one
  /// shard (serial sections only). The snapshot writer walks shards in
  /// order, so the per-shard flat tables' deterministic insertion order
  /// is the wire order.
  const hdk::KeyMap<LedgerEntry>& ShardLedger(size_t shard) const;
  const hdk::KeyMap<hdk::KeyEntry>& ShardFragment(size_t shard,
                                                  PeerId owner) const;

  /// Bulk state adoption for shard `shard` (snapshot load when the saved
  /// shard count matches this index's): the tables are installed verbatim
  /// — cached hashes included, so nothing re-hashes. EnsureCapacity()
  /// must have run; the shard must still be empty.
  void AdoptShardState(size_t shard, hdk::KeyMap<LedgerEntry> ledger,
                       std::vector<hdk::KeyMap<hdk::KeyEntry>> fragments);

  /// Per-entry adoption (snapshot load when the saved shard count differs:
  /// entries are re-routed to this index's shard of `key_hash`, still
  /// without re-hashing any term array).
  void AdoptLedgerEntry(const hdk::TermKey& key, uint64_t key_hash,
                        LedgerEntry entry);
  void AdoptFragmentEntry(PeerId owner, const hdk::TermKey& key,
                          uint64_t key_hash, hdk::KeyEntry entry);

 private:
  /// One shard: the slice of the pending buffer, the ledger and the
  /// per-peer fragment maps for the keys hashing to it — all flat tables
  /// (hdk::KeyMap) whose entries cache the key's Hash64, so the merge
  /// paths never re-hash a term array. The mutex guards `pending` against
  /// concurrent InsertPostings; everything else is touched either from
  /// serial sections or by exactly one worker during the shard-parallel
  /// merge paths. `pending` is cleared (capacity kept) at the end of
  /// every level: the table stays pre-sized at the prior wave's key
  /// count, so later waves insert without mid-wave rehashes.
  struct Shard {
    std::mutex insert_mu;
    /// Contributions received since the last EndLevel call.
    hdk::KeyMap<std::vector<Contribution>> pending;
    /// Full contribution history per key.
    hdk::KeyMap<LedgerEntry> ledger;
    /// peer -> this shard's slice of the peer's published fragment.
    std::vector<hdk::KeyMap<hdk::KeyEntry>> fragments;
    /// peer -> this shard's slice of the peer's REPLICA copies (separate
    /// from the primary fragments so ExportContents / StoredPostingsAt
    /// keep their primary-only semantics). Empty when replication == 1.
    std::vector<hdk::KeyMap<hdk::KeyEntry>> replicas;
    /// Contributions whose transmission exhausted the retry budget
    /// against a live peer — redelivered (one recorded message each) at
    /// the next level barrier, where the published index catches up.
    /// Guarded by insert_mu.
    struct Redelivery {
      PeerId src = kInvalidPeer;
      hdk::TermKey key;
      uint64_t key_hash = 0;
      index::PostingList full;
      uint64_t payload = 0;
    };
    std::vector<Redelivery> redelivery;
  };

  size_t ShardOf(uint64_t key_hash) const;

  /// True when the injector can currently perturb traffic.
  bool FaultsActive() const {
    return res_.injector != nullptr && res_.injector->active();
  }

  /// Drains the shard's barrier redelivery queue into `pending`: each
  /// surviving item records its final delivery message; items addressed
  /// to a peer that has died meanwhile are dropped and counted.
  void DrainRedelivery(Shard& shard, bool record_traffic);

  /// Copies the freshly published `entry` of `key` to its replica
  /// holders (no-op when replication == 1). With `record_traffic` each
  /// copy is one best-effort kReplicaPush from the owner, and a lost push
  /// leaves the holder stale; without it the copies are written silently.
  void PublishReplicas(Shard& shard, const hdk::TermKey& key,
                       uint64_t key_hash, const hdk::KeyEntry& entry,
                       bool record_traffic);

  /// Primary-fragment lookup on `owner`, the key's already resolved
  /// responsible peer (nullptr when absent).
  const hdk::KeyEntry* PeekPrimary(PeerId owner, uint64_t key_hash,
                                   const hdk::TermKey& key) const;

  /// Replica-map lookup on `holder` (nullptr when absent).
  const hdk::KeyEntry* PeekReplica(PeerId holder, uint64_t key_hash,
                                   const hdk::TermKey& key) const;

  /// EndLevel over one shard's pending keys, ascending-key order.
  LevelOutcome EndLevelShard(Shard& shard, const HdkParams& params,
                             double avg_doc_length, bool notify_contributors,
                             bool record_traffic);

  /// Recomputes the merge cache of the ledger entry at `pos` of `shard`
  /// from its whole contribution history under `avg_doc_length` and
  /// publishes it. With `changes` set, an entry whose published content
  /// changed is noted there with its previous classification. Returns
  /// whether the entry is an NDK.
  bool Rederive(Shard& shard, size_t pos, const HdkParams& params,
                double avg_doc_length,
                hdk::KeyMap<DepartureBaseline::Change>* changes);

  /// Derives the published KeyEntry of `key` from the ledger cache —
  /// bit-identical to what a from-scratch build would publish — and
  /// stores it on the responsible fragment slot of `shard` (which must be
  /// the key's shard). `key_hash` = key.Hash64(), carried by the caller.
  /// Returns whether the published entry is an NDK; `changed`, when set,
  /// receives whether the stored entry's content differs from before.
  bool Publish(Shard& shard, const hdk::TermKey& key, uint64_t key_hash,
               LedgerEntry& ledger, const HdkParams& params,
               double avg_doc_length, bool record_traffic = false,
               bool* changed = nullptr);

  const dht::Overlay* overlay_;
  net::TrafficRecorder* traffic_;
  ThreadPool* pool_;
  net::Resilience res_;
  std::atomic<uint64_t> lost_contributions_{0};
  std::atomic<uint64_t> lost_notifications_{0};
  std::atomic<uint64_t> missed_replica_pushes_{0};
  std::atomic<uint64_t> missed_replica_forgets_{0};
  /// Set by BeginDeparture on a replicated index: the repair's publishes
  /// leave the surviving replica maps untouched so the reconciliation
  /// after FinishDeparture ships only what the departure changed instead
  /// of re-shipping everything. Serial sections only.
  bool replica_defer_ = false;
  /// Bumped per ReconcileReplicas call; salts the sync message fault
  /// decisions so successive sweeps draw independent loss outcomes.
  uint64_t sync_epoch_ = 0;
  sync::SyncStats sync_stats_;
  /// unique_ptr: Shard holds a mutex and must not move when the vector is
  /// built. Fixed size after construction.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace hdk::p2p

#endif  // HDKP2P_P2P_GLOBAL_INDEX_H_
