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
// ONE KEY TABLE PER SHARD holds everything the index knows about a key.
// The hot part of a slot is what FetchFrom probes: the published entry
// (global df, classification, postings) and its owner, the responsible
// peer whose fragment holds it. A side column keeps the contributor
// records — (peer, local df) in ascending peer order — and, for an NDK,
// the merged list the published entry is cut from. Each posting is stored
// once:
//   * an HDK's published list IS the merge of its contributions;
//   * an NDK keeps the merged list and publishes its top DFmax;
//   * a contribution sent whole (local df <= DFmax) is not kept at all:
//     peers own disjoint document ranges, so it is the merged list
//     restricted to its contributor's range (ContributionOf);
//   * only a locally truncated contribution keeps its full local list,
//     because a shift of the average document length re-truncates it.
// In the real network a contributor's lists stay on the contributor; the
// table is the simulator's record of them, and the protocol reads a peer's
// own keys back through ContributionOf instead of keeping a second copy on
// the Peer. A departure removes the departed range from each merged list
// in place. All recorded traffic models exactly what the protocol
// transmits and stores.
//
// SHARDING: the index is internally partitioned into N shards by the key's
// placement hash — the same hash that assigns the key to its responsible
// peer, so a key's pending contributions and its table slot live on
// exactly one shard and never move between shards (overlay growth
// re-places keys across PEERS, and that handover only rewrites the
// slot's owner). InsertPostings appends each contribution to the calling
// task's own run for the key's shard and copies its list into the run's
// posting pool (ContributionRuns: no lock, no hash probe, no per-key
// allocation), and the task hands its runs to the index once, when it
// ends (Submit). EndLevel sort-merges each shard's runs by (key,
// contributor) and frees them. The heavy merge paths — EndLevel, Retruncate, OnOverlayGrown,
// EraseKeysContaining and the in-place departure repair — fan out
// shard-wise on the thread pool with zero cross-shard contention. Every
// shard processes its keys in ascending-key order and the per-shard
// partial outcomes are reduced in deterministic (ascending key, then
// ascending peer) order, so published postings, notifications, traffic
// counters and reclassification counts are identical for every shard and
// thread count; with no pool the index runs one shard on the caller — the
// exact serial path.
#ifndef HDKP2P_P2P_GLOBAL_INDEX_H_
#define HDKP2P_P2P_GLOBAL_INDEX_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
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
  /// The departed peer's dropped contributions (records and postings).
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
  /// One contribution on its way from InsertPostings to the level barrier.
  struct PendingContribution {
    hdk::TermKey key;
    /// The send ran out of attempts against a live owner: the barrier
    /// redelivers it (one recorded message) before classifying.
    bool redeliver = false;
    PeerId peer = kInvalidPeer;
    uint64_t key_hash = 0;
    /// The contributor's full local list: `local_df` postings from
    /// `offset` of its run's posting pool.
    uint32_t offset = 0;
    uint32_t local_df = 0;
  };

  /// One task's contributions to one shard, in append order, with the
  /// pool their lists are copied into. The barrier merges out of the pool
  /// and frees it whole: a per-contribution list allocated by the scan
  /// thread and freed by the merging one costs the merge a cross-thread
  /// free per contribution.
  struct ContributionRun {
    std::vector<PendingContribution> contributions;
    std::vector<index::Posting> postings;
  };

  /// One task's contributions of the current level to one index, one run
  /// per shard. The task that fills it owns it, so InsertPostings appends
  /// without a lock; Submit hands the runs to the index once.
  class ContributionRuns {
   private:
    friend class DistributedGlobalIndex;
    std::vector<ContributionRun> by_shard_;
  };

  /// The published part of a key-table slot: the entry FetchFrom returns
  /// and the peer whose fragment holds it. `owner` is kInvalidPeer while
  /// a departure repair has erased the key (FinishDeparture drops it).
  struct Published {
    hdk::KeyEntry entry;
    PeerId owner = kInvalidPeer;
  };

  /// One contributor of a key and its local document frequency.
  struct Contributor {
    PeerId peer = kInvalidPeer;
    uint32_t local_df = 0;
  };

  /// The full local list of a locally truncated contribution (local df >
  /// DFmax): the one contribution an avgdl shift re-truncates.
  struct KeptList {
    PeerId peer = kInvalidPeer;
    index::PostingList full;
  };

  /// The side column of a key-table slot. The merged list — the union of
  /// every transmitted list — is the published list of an HDK and
  /// `merged` of an NDK (empty for an HDK). Public because the snapshot
  /// codec (engine/engine_snapshot) persists the table verbatim.
  struct Ledger {
    std::vector<Contributor> contributors;  // ascending peer id
    std::vector<KeptList> kept;             // ascending peer id
    index::PostingList merged;
  };

  /// An in-place departure repair from BeginDeparture to FinishDeparture.
  /// The key table stays where it is; the baseline only remembers what
  /// the repair still has to revisit (the keys the departed peer
  /// contributed to) and to bill (fragment handovers and entries whose
  /// published content changed).
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
    /// One shard's slice. Table positions are stable through the
    /// repair: emptied slots are only erased by FinishDeparture, and
    /// re-admission keys are appended.
    struct ShardRepair {
      /// dirty[s - 1]: table positions of the size-s keys the departed
      /// peer contributed to.
      std::vector<std::vector<uint32_t>> dirty;
      hdk::KeyMap<Change> changes;
      /// Keys left without a surviving contributor.
      uint64_t erased_keys = 0;
    };
    std::vector<ShardRepair> shards;
  };

  /// What one level of the in-place departure repair changed for the
  /// surviving peers (see RepairLevel).
  struct LevelRepair {
    /// Surviving contributions dropped because the peer can no longer
    /// generate the key.
    uint64_t retracted = 0;
    /// Facts a surviving contributor loses, as (peer, key) pairs: the key
    /// is no longer a non-discriminative key it contributes to.
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

  /// The peer responsible for a key.
  PeerId ResponsiblePeer(const hdk::TermKey& key) const;

  /// Grows the per-peer replica maps, the traffic recorder's peer
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
  /// exactly as in the paper's protocol. The key table keeps the full
  /// list only when it was truncated (see the file comment). Returns the
  /// number of postings actually transmitted.
  ///
  /// The message is routed and billed here; the contribution is appended
  /// to `runs`' run for the key's shard and reaches the index when the
  /// caller Submits `runs`. `key_hash` = key.Hash64(): the scan wave reads
  /// it out of the candidate map's hash cache, so overlay routing, shard
  /// choice and the barrier's table probe all reuse one hash computation.
  ///
  /// THREAD SAFETY: may be called concurrently with distinct `runs` (the
  /// parallel scan waves do, one per task) once EnsureCapacity() has run
  /// for the current overlay size.
  uint64_t InsertPostings(ContributionRuns& runs, PeerId src,
                          const hdk::TermKey& key, uint64_t key_hash,
                          index::PostingList full_local,
                          const HdkParams& params);

  /// One insertion submitted on its own (serial callers and tests).
  uint64_t InsertPostings(PeerId src, const hdk::TermKey& key,
                          index::PostingList full_local,
                          const HdkParams& params) {
    ContributionRuns runs;
    const uint64_t payload = InsertPostings(
        runs, src, key, key.Hash64(), std::move(full_local), params);
    Submit(std::move(runs));
    return payload;
  }

  /// Hands a task's runs to the index for the next EndLevel; `runs` is
  /// left empty. Thread-safe: one short critical section per call.
  void Submit(ContributionRuns&& runs);

  /// `peer`'s full local list for `key`, or an empty span when the peer
  /// has no merged contribution to it (one still waiting in a run for
  /// EndLevel does not count; a contribution is never empty). [first,
  /// last) is the peer's document range: a contribution sent whole is
  /// the merged list restricted to it, a truncated one its kept list.
  /// `key_hash` = key.Hash64(). Safe to call concurrently while nothing
  /// writes the table: the scan waves only read it, and EndLevel and the
  /// repairs run between waves.
  std::span<const index::Posting> ContributionOf(PeerId peer, DocId first,
                                                 DocId last,
                                                 const hdk::TermKey& key,
                                                 uint64_t key_hash) const;

  /// Classifies all keys that received contributions since the last
  /// EndLevel call: merges them into the key's merged list, re-derives the
  /// published entry (HDK full postings / NDK top-DFmax postings, score
  /// normalized with `avg_doc_length`), gives it to the responsible peer
  /// and — when `notify_contributors` is set — sends NdkNotification
  /// messages. A key already published as NDK notifies only its NEW
  /// contributors; a key that just crossed DFmax (HDK -> NDK, or a new
  /// key that is born non-discriminative) notifies ALL contributors.
  /// Notifications are pointless at the last level (size filtering stops
  /// expansion), so the protocol disables them there. The departure
  /// repair passes `record_traffic = false`: nothing is sent, replica
  /// copies are left to the reconciliation after the repair, and the
  /// repair accounts the genuinely travelling notifications itself.
  /// Runs shard-parallel on the pool; see the file comment for the
  /// determinism contract.
  LevelOutcome EndLevel(const HdkParams& params, double avg_doc_length,
                        bool notify_contributors = true,
                        bool record_traffic = true);

  // -- departure (churn) support ---------------------------------------

  /// Begins an in-place departure repair. Must be called AFTER the
  /// overlay dropped peer `departing` (and renumbered the ids above it
  /// down by one); [first, last) is the departed peer's document range.
  /// One shard-parallel pass:
  ///   * removes the departed peer's contributions — its record, its
  ///     local df and its range of the merged list — renumbers the
  ///     surviving contributors past it and notes every key it touched as
  ///     dirty at that key's level;
  ///   * drops the departed peer's replica slots and hands every entry
  ///     whose responsible peer changed to its new owner (the departed
  ///     peer's whole fragment included), noting the handovers for
  ///     FinishDeparture to bill.
  /// The repair never touches the replica copies, so the reconciliation
  /// after FinishDeparture ships only what the departure changed.
  /// Fills `stats`' departed peer and its dropped contribution share.
  DepartureBaseline BeginDeparture(PeerId departing, DocId first, DocId last,
                                   DepartureStats* stats);

  /// Repairs the size-`level` keys in place. A key is dirty when the
  /// departed peer contributed to it, or — when `suspect` is set — when
  /// `suspect(key)` holds and some contributor no longer `keeps(peer,
  /// key)` (it lost a fact the key's generation needs). For each dirty
  /// key the contributions `keeps` rejects are retracted (their ranges
  /// leave the merged list; `ranges[p]` is surviving peer p's document
  /// range), and the entry is re-derived under `avg_doc_length` and
  /// republished, or erased when no contributor is left. `facts` says
  /// whether the contributors of a non-discriminative key at this level
  /// hold it as a fact (every level below s_max). Nothing is recorded on
  /// the wire; `keeps` and `suspect` are called concurrently and must
  /// only read. Runs shard-parallel.
  LevelRepair RepairLevel(
      DepartureBaseline& baseline, uint32_t level, const HdkParams& params,
      double avg_doc_length, bool facts,
      std::span<const std::pair<DocId, DocId>> ranges,
      const std::function<bool(const hdk::TermKey&)>& suspect,
      const std::function<bool(PeerId, const hdk::TermKey&)>& keeps);

  /// Ends the repair: re-derives every remaining avgdl-dependent entry
  /// under `avg_doc_length`, erases the emptied slots and bills
  /// the churn traffic — one kMaintenance message per key whose fragment
  /// moved (from the old owner, or from the lowest-id surviving
  /// contributor when the departed peer hosted it) or whose published
  /// content changed in place (from that contributor), carrying the
  /// repaired entry's postings. The caller then reconciles the replica
  /// copies (ReconcileReplicas). Runs shard-parallel and fills `stats`'
  /// erased, reverse-reclassified, migrated, repaired and moved-postings
  /// counters.
  void FinishDeparture(DepartureBaseline baseline, const HdkParams& params,
                       double avg_doc_length, DepartureStats* stats);

  /// Removes every key containing one of `terms` from the key table in
  /// one pass — used when terms cross the very-frequent
  /// threshold Ff as the collection grows (a from-scratch build over the
  /// grown collection excludes them from the key vocabulary). Like the Ff
  /// cutoff itself, this is treated as global preprocessing outside the
  /// paper's traffic accounting. Returns the number of erased keys.
  uint64_t EraseKeysContaining(const TermIdSet& terms);

  /// Re-derives every published entry whose truncation depends on the
  /// average document length — the NDKs: each locally truncated
  /// contribution's slice of the merged list is replaced by the
  /// re-truncation of its kept list, then the top DFmax is re-cut.
  /// Called when the collection grew and avgdl shifted, so that the
  /// published state matches what a from-scratch build over the grown
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

  /// Re-derives every replica map from the published entries (no
  /// traffic). Called after bulk state adoption (snapshot load); a no-op
  /// when replication == 1.
  void RebuildReplicas();

  // -- anti-entropy replica sync (sync/) --------------------------------

  /// Reconciles every (primary, holder) replica pair against the published
  /// entries: each pair exchanges a strata estimator + invertible Bloom
  /// filter and ships only the decoded difference, falling back to a full
  /// bucket re-send when the sketch fails to decode. Joins and departures
  /// run it after their repair; RunAntiEntropy runs it on demand. Pairs
  /// whose primary or holder is hard-dead, or whose exchange loses a leg
  /// after retries, are skipped whole — a pair is repaired atomically or
  /// not at all, so reconciliation can degrade but never diverge. Runs
  /// holder-parallel on the pool; traffic, repairs and stats are
  /// deterministic for every thread/shard count.
  /// The exchange is billed in full, but computed from the difference
  /// only: a pair whose sides agree on (slot count, sum of mixed digests)
  /// is identical and gets the plan of two empty sets, and a diverged
  /// pair is planned over its symmetric difference, which yields the
  /// same sketches. CountReplicaDivergence is the from-scratch backstop.
  /// The returned per-call stats are also accumulated into sync_stats().
  sync::SyncStats ReconcileReplicas();

  /// Brute-force divergence count (test/diagnostic helper, no traffic):
  /// the number of (holder, key) replica slots that differ from what
  /// RebuildReplicas would derive — missing, extra, or stale-content.
  uint64_t CountReplicaDivergence() const;

  /// Cumulative reconciliation stats across all ReconcileReplicas calls.
  const sync::SyncStats& sync_stats() const { return sync_stats_; }
  /// Cumulative wall-clock split of all ReconcileReplicas calls.
  const sync::SyncTimings& sync_timings() const { return sync_timings_; }

  /// Best-effort replica maintenance messages that were lost in flight
  /// (under an active fault plan): the divergence RunAntiEntropy is
  /// there to detect and heal.
  uint64_t missed_replica_pushes() const {
    return missed_replica_pushes_.load(std::memory_order_relaxed);
  }
  uint64_t missed_replica_forgets() const {
    return missed_replica_forgets_.load(std::memory_order_relaxed);
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

  /// True while submitted contributions await the next EndLevel call — a
  /// snapshot taken then would lose them, so saving is refused.
  bool HasPendingContributions() const;

  /// Read access to one shard's key table and its side column (serial
  /// sections only): ShardLedger(shard)[pos] belongs to
  /// ShardKeys(shard).entry(pos). The snapshot writer walks shards in
  /// order, so the flat table's deterministic insertion order is the wire
  /// order.
  const hdk::KeyMap<Published>& ShardKeys(size_t shard) const;
  const std::vector<Ledger>& ShardLedger(size_t shard) const;

  /// Bulk state adoption for shard `shard` (snapshot load when the saved
  /// shard count matches this index's): the table is installed verbatim —
  /// cached hashes included, so nothing re-hashes. `ledger` is the side
  /// column, one element per table entry; the shard must still be empty.
  void AdoptShardState(size_t shard, hdk::KeyMap<Published> keys,
                       std::vector<Ledger> ledger);

  /// Per-entry adoption (snapshot load when the saved shard count differs:
  /// entries are re-routed to this index's shard of `key_hash`, still
  /// without re-hashing any term array).
  void AdoptEntry(const hdk::TermKey& key, uint64_t key_hash,
                  Published published, Ledger ledger);

 private:
  /// One shard: the submitted runs, the key table and the per-holder
  /// replica maps for the keys hashing to it. The tables are flat
  /// (hdk::KeyMap) and cache the key's Hash64, so the merge paths never
  /// re-hash a term array. `runs` is appended to under `submit_mu_`;
  /// everything else is touched either from serial sections or by exactly
  /// one worker during the shard-parallel merge paths.
  struct Shard {
    /// Runs submitted since the last EndLevel call, which frees them.
    std::vector<ContributionRun> runs;
    /// The key table: every key's published entry and owner.
    hdk::KeyMap<Published> keys;
    /// Its side column: ledger[pos] belongs to keys.entry(pos), so every
    /// insertion appends to both and every erase swap-removes from both.
    std::vector<Ledger> ledger;
    /// peer -> this shard's slice of the peer's REPLICA copies (separate
    /// from the published entries so ExportContents / StoredPostingsAt
    /// keep their primary-only semantics). Empty when replication == 1.
    std::vector<hdk::KeyMap<hdk::KeyEntry>> replicas;
  };

  size_t ShardOf(uint64_t key_hash) const;

  /// True when the injector can currently perturb traffic.
  bool FaultsActive() const {
    return res_.injector != nullptr && res_.injector->active();
  }

  /// Copies the freshly published `entry` of `key` to its replica
  /// holders (no-op when replication == 1). Publish never does: EndLevel
  /// pushes what it publishes, Retruncate copies silently, and the
  /// departure repair leaves the copies to the reconciliation. With
  /// `record_traffic` each copy is one best-effort kReplicaPush from the
  /// owner, and a lost push leaves the holder stale; without it the copies
  /// are written silently.
  void PublishReplicas(Shard& shard, const hdk::TermKey& key,
                       uint64_t key_hash, const hdk::KeyEntry& entry,
                       bool record_traffic);

  /// The published entry of `key` if `owner` holds it (nullptr when
  /// absent or held elsewhere).
  const hdk::KeyEntry* PeekPrimary(PeerId owner, uint64_t key_hash,
                                   const hdk::TermKey& key) const;

  /// Replica-map lookup on `holder` (nullptr when absent).
  const hdk::KeyEntry* PeekReplica(PeerId holder, uint64_t key_hash,
                                   const hdk::TermKey& key) const;

  /// EndLevel over one shard's submitted runs, ascending-key order.
  LevelOutcome EndLevelShard(Shard& shard, const HdkParams& params,
                             double avg_doc_length, bool notify_contributors,
                             bool record_traffic);

  const dht::Overlay* overlay_;
  net::TrafficRecorder* traffic_;
  ThreadPool* pool_;
  net::Resilience res_;
  std::atomic<uint64_t> missed_replica_pushes_{0};
  std::atomic<uint64_t> missed_replica_forgets_{0};
  /// Bumped per ReconcileReplicas call; salts the sync message fault
  /// decisions so successive sweeps draw independent loss outcomes.
  uint64_t sync_epoch_ = 0;
  sync::SyncStats sync_stats_;
  sync::SyncTimings sync_timings_;
  /// Guards every shard's `runs` while tasks Submit.
  std::mutex submit_mu_;
  /// One allocation per shard, so workers merging neighbouring shards do
  /// not share cache lines. Fixed size after construction.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace hdk::p2p

#endif  // HDKP2P_P2P_GLOBAL_INDEX_H_
