// Message-level traffic accounting.
//
// The paper's scalability metric is the number of POSTINGS transmitted
// through the network during indexing and retrieval (Section 4: "we ...
// merely analyze the number of postings the network needs to absorb and
// transmit"). The simulator therefore records, for every message, the
// posting payload alongside message and hop counts and an approximate
// byte volume.
//
// THREAD SAFETY: Record() may be called concurrently from any number of
// threads (the parallel SearchBatch fan-out records retrieval traffic from
// every pool worker). Writes go to sharded counters and are merged on
// read. A thread picks its shard once, on its first Record(): it claims
// the lowest shard slot no other live thread holds and releases it when
// it exits, so up to kNumShards live threads (the pool workers plus the
// caller) each write their own cache-line-aligned shard; only threads
// beyond that share slots. Each shard still has a mutex, uncontended
// unless slots are shared. The aggregate accessors (total(), ByKind(),
// SentBy(), ReceivedBy(), Snapshot()) must only be called while no
// concurrent Record() is in flight — i.e. from the serial sections
// between parallel regions, which is where every bench and test reads
// them. Per-query message/hop deltas under concurrency use ScopedTally,
// which counts only the messages recorded by the calling thread.
#ifndef HDKP2P_NET_TRAFFIC_H_
#define HDKP2P_NET_TRAFFIC_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace hdk::net {

/// Protocol message categories.
enum class MessageKind : uint8_t {
  kInsertPostings = 0,   // peer -> responsible peer: key + local postings
  kNdkNotification = 1,  // responsible peer -> contributor: expand this key
  kKeyProbe = 2,         // query peer -> responsible peer: lattice probe
  kPostingsResponse = 3, // responsible peer -> query peer: postings payload
  kStatsQuery = 4,       // global statistics request
  kStatsResponse = 5,
  kMaintenance = 6,      // overlay join/repair traffic
  kBloomFilter = 7,      // Bloom-filter payload (ST conjunctive chain)
  kReclassifyNotification = 8,  // responsible peer -> contributor: a key
                                // this peer contributed is discriminative
                                // again after churn (forget + retract)
  kReplicaPush = 9,     // primary -> replica holder: replicate a fragment
                        // entry (best-effort; lossable)
  kReplicaForget = 10,  // primary -> replica holder: drop a retracted key
                        // (best-effort; a lost notice leaves the replica
                        // stale until anti-entropy heals it)
  kSyncStrata = 11,     // replica -> primary: strata-estimator sketch
  kSyncIbf = 12,        // primary -> replica: invertible Bloom filter
  kSyncDelta = 13,      // decoded-difference exchange: key list one way,
                        // missing postings the other
  kSyncFull = 14,       // IBF decode failed: whole-bucket
                        // re-replication fallback
};
inline constexpr size_t kNumMessageKinds = 15;

/// Human-readable kind name.
std::string_view MessageKindName(MessageKind kind);

/// Aggregated counters.
struct TrafficCounters {
  uint64_t messages = 0;
  uint64_t postings = 0;
  uint64_t hops = 0;
  uint64_t bytes = 0;

  void Add(const TrafficCounters& other) {
    messages += other.messages;
    postings += other.postings;
    hops += other.hops;
    bytes += other.bytes;
  }
  bool operator==(const TrafficCounters&) const = default;
};

/// Byte-cost model for the approximate byte accounting.
struct CostModel {
  uint64_t header_bytes = 48;    // addressing + key + kind
  uint64_t posting_bytes = 12;   // docid + tf + doc length
  uint64_t per_hop_overhead = 0; // set >0 to bill every routed hop
};

class TrafficRecorder;

/// RAII tally of the traffic the CALLING THREAD records on one recorder
/// between construction and destruction. This is how query executions
/// attribute messages/hops to themselves: a query runs entirely on one
/// thread, so the thread-local tally is exact even while other pool
/// workers record their own queries' traffic concurrently. At most one
/// tally is active per (thread, recorder); tallies on different recorders
/// may nest.
class ScopedTally {
 public:
  explicit ScopedTally(const TrafficRecorder* recorder);
  ~ScopedTally();

  ScopedTally(const ScopedTally&) = delete;
  ScopedTally& operator=(const ScopedTally&) = delete;

  const TrafficCounters& counters() const { return counters_; }

 private:
  friend class TrafficRecorder;

  const TrafficRecorder* recorder_;
  ScopedTally* prev_;
  TrafficCounters counters_;
};

/// Records protocol messages between peers.
///
/// Per-peer counters distinguish sent and received volume so that the
/// "per peer" figures of the paper (Figures 3, 4) can be reproduced.
class TrafficRecorder {
 public:
  explicit TrafficRecorder(CostModel model = {});

  /// Ensures per-peer counters exist for ids < n. Safe to call
  /// concurrently with Record().
  void EnsurePeers(size_t n) const;

  /// Records one message of `kind` from `src` to `dst` carrying `postings`
  /// postings and routed over `hops` overlay hops. `extra_bytes` bills
  /// non-posting payload (sketches, key lists) on top of the cost model.
  /// Thread-safe.
  void Record(PeerId src, PeerId dst, MessageKind kind, uint64_t postings,
              uint64_t hops, uint64_t extra_bytes = 0) const;

  // -- aggregate reads (serial sections only; see file comment) ---------

  /// Totals across all peers and kinds.
  const TrafficCounters& total() const;

  /// Totals for one message kind.
  const TrafficCounters& ByKind(MessageKind kind) const;

  /// Volume sent by / received by one peer.
  const TrafficCounters& SentBy(PeerId peer) const;
  const TrafficCounters& ReceivedBy(PeerId peer) const;

  /// Number of peers tracked.
  size_t num_peers() const {
    return num_peers_.load(std::memory_order_acquire);
  }

  /// Resets every counter (peers stay registered).
  void Reset();

  /// Snapshot of the current totals (for differential measurements from
  /// serial sections; inside parallel regions use ScopedTally instead).
  TrafficCounters Snapshot() const;

  /// Replaces all counters with previously saved aggregates (snapshot
  /// load, see engine/engine_snapshot). `sent` and `received` must have
  /// the same size; peers are registered up to that size. Serial sections
  /// only.
  void Restore(const TrafficCounters& total,
               const std::array<TrafficCounters, kNumMessageKinds>& by_kind,
               std::vector<TrafficCounters> sent,
               std::vector<TrafficCounters> received);

 private:
  /// One shard of the write side (see the file comment for how a thread
  /// picks one). Every mutation holds the shard mutex, so threads sharing
  /// a slot stay correct; the alignment keeps neighbouring shards off one
  /// cache line.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    TrafficCounters total;
    std::array<TrafficCounters, kNumMessageKinds> by_kind{};
    std::vector<TrafficCounters> sent;
    std::vector<TrafficCounters> received;
  };
  static constexpr size_t kNumShards = 16;

  Shard& ShardForThisThread() const;

  /// Folds every shard into the merged_ cache. Caller must be in a serial
  /// section; the merge itself locks each shard.
  void MergeShards() const;

  CostModel model_;
  mutable std::atomic<size_t> num_peers_{0};
  mutable std::array<Shard, kNumShards> shards_;

  /// Read-side cache, rebuilt by the aggregate accessors.
  struct Merged {
    TrafficCounters total;
    std::array<TrafficCounters, kNumMessageKinds> by_kind{};
    std::vector<TrafficCounters> sent;
    std::vector<TrafficCounters> received;
  };
  mutable Merged merged_;
};

}  // namespace hdk::net

#endif  // HDKP2P_NET_TRAFFIC_H_
