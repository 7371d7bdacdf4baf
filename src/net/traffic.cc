#include "net/traffic.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace hdk::net {

namespace {

/// The innermost active tally of the calling thread (tallies on different
/// recorders chain through prev_).
thread_local ScopedTally* tls_active_tally = nullptr;

/// Bit i is set while some live thread holds shard slot i.
std::atomic<uint32_t> g_claimed_slots{0};
std::atomic<uint32_t> g_overflow_slots{0};

/// A thread's shard slot: the lowest unclaimed one, released at thread
/// exit. When every slot is taken, slots are shared round-robin.
class ShardSlot {
 public:
  explicit ShardSlot(size_t num_slots) {
    assert(num_slots < 32);
    uint32_t claimed = g_claimed_slots.load(std::memory_order_relaxed);
    for (;;) {
      const uint32_t free_mask = ~claimed & ((uint32_t{1} << num_slots) - 1);
      if (free_mask == 0) {
        index_ = g_overflow_slots.fetch_add(1, std::memory_order_relaxed) %
                 num_slots;
        return;
      }
      const int lowest = std::countr_zero(free_mask);
      if (g_claimed_slots.compare_exchange_weak(
              claimed, claimed | (uint32_t{1} << lowest),
              std::memory_order_relaxed)) {
        index_ = static_cast<size_t>(lowest);
        owned_ = true;
        return;
      }
    }
  }
  ~ShardSlot() {
    if (owned_) {
      g_claimed_slots.fetch_and(~(uint32_t{1} << index_),
                                std::memory_order_relaxed);
    }
  }
  ShardSlot(const ShardSlot&) = delete;
  ShardSlot& operator=(const ShardSlot&) = delete;

  size_t index() const { return index_; }

 private:
  size_t index_ = 0;
  bool owned_ = false;
};

}  // namespace

std::string_view MessageKindName(MessageKind kind) {
  switch (kind) {
    case MessageKind::kInsertPostings: return "InsertPostings";
    case MessageKind::kNdkNotification: return "NdkNotification";
    case MessageKind::kKeyProbe: return "KeyProbe";
    case MessageKind::kPostingsResponse: return "PostingsResponse";
    case MessageKind::kStatsQuery: return "StatsQuery";
    case MessageKind::kStatsResponse: return "StatsResponse";
    case MessageKind::kMaintenance: return "Maintenance";
    case MessageKind::kBloomFilter: return "BloomFilter";
    case MessageKind::kReclassifyNotification:
      return "ReclassifyNotification";
    case MessageKind::kReplicaPush: return "ReplicaPush";
    case MessageKind::kReplicaForget: return "ReplicaForget";
    case MessageKind::kSyncStrata: return "SyncStrata";
    case MessageKind::kSyncIbf: return "SyncIbf";
    case MessageKind::kSyncDelta: return "SyncDelta";
    case MessageKind::kSyncFull: return "SyncFull";
  }
  return "Unknown";
}

ScopedTally::ScopedTally(const TrafficRecorder* recorder)
    : recorder_(recorder), prev_(tls_active_tally) {
  tls_active_tally = this;
}

ScopedTally::~ScopedTally() { tls_active_tally = prev_; }

TrafficRecorder::TrafficRecorder(CostModel model) : model_(model) {}

void TrafficRecorder::EnsurePeers(size_t n) const {
  // Lock-free monotone max; the per-peer vectors grow lazily inside the
  // shard locks on the next write.
  size_t current = num_peers_.load(std::memory_order_relaxed);
  while (current < n &&
         !num_peers_.compare_exchange_weak(current, n,
                                           std::memory_order_acq_rel)) {
  }
}

TrafficRecorder::Shard& TrafficRecorder::ShardForThisThread() const {
  thread_local const ShardSlot slot(kNumShards);
  return shards_[slot.index()];
}

void TrafficRecorder::Record(PeerId src, PeerId dst, MessageKind kind,
                             uint64_t postings, uint64_t hops,
                             uint64_t extra_bytes) const {
  EnsurePeers(static_cast<size_t>(std::max(src, dst)) + 1);
  TrafficCounters delta;
  delta.messages = 1;
  delta.postings = postings;
  delta.hops = hops;
  delta.bytes = model_.header_bytes + postings * model_.posting_bytes +
                hops * model_.per_hop_overhead + extra_bytes;

  for (ScopedTally* tally = tls_active_tally; tally != nullptr;
       tally = tally->prev_) {
    if (tally->recorder_ == this) {
      tally->counters_.Add(delta);
      break;
    }
  }

  Shard& shard = ShardForThisThread();
  std::lock_guard<std::mutex> lock(shard.mu);
  const size_t need = static_cast<size_t>(std::max(src, dst)) + 1;
  if (shard.sent.size() < need) {
    shard.sent.resize(need);
    shard.received.resize(need);
  }
  shard.total.Add(delta);
  shard.by_kind[static_cast<size_t>(kind)].Add(delta);
  shard.sent[src].Add(delta);
  shard.received[dst].Add(delta);
}

void TrafficRecorder::MergeShards() const {
  // Cleared in place (never reassigned) so references returned by earlier
  // accessor calls stay valid across merges, like the pre-sharded
  // recorder's member counters did.
  merged_.total = TrafficCounters{};
  merged_.by_kind.fill(TrafficCounters{});
  const size_t n = num_peers();
  if (merged_.sent.size() < n) {
    merged_.sent.resize(n);
    merged_.received.resize(n);
  }
  for (auto& c : merged_.sent) c = TrafficCounters{};
  for (auto& c : merged_.received) c = TrafficCounters{};
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    merged_.total.Add(shard.total);
    for (size_t k = 0; k < kNumMessageKinds; ++k) {
      merged_.by_kind[k].Add(shard.by_kind[k]);
    }
    for (size_t p = 0; p < shard.sent.size(); ++p) {
      merged_.sent[p].Add(shard.sent[p]);
      merged_.received[p].Add(shard.received[p]);
    }
  }
}

const TrafficCounters& TrafficRecorder::total() const {
  MergeShards();
  return merged_.total;
}

const TrafficCounters& TrafficRecorder::ByKind(MessageKind kind) const {
  MergeShards();
  return merged_.by_kind[static_cast<size_t>(kind)];
}

const TrafficCounters& TrafficRecorder::SentBy(PeerId peer) const {
  MergeShards();
  assert(peer < merged_.sent.size());
  return merged_.sent[peer];
}

const TrafficCounters& TrafficRecorder::ReceivedBy(PeerId peer) const {
  MergeShards();
  assert(peer < merged_.received.size());
  return merged_.received[peer];
}

TrafficCounters TrafficRecorder::Snapshot() const {
  MergeShards();
  return merged_.total;
}

void TrafficRecorder::Reset() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.total = TrafficCounters{};
    shard.by_kind.fill(TrafficCounters{});
    for (auto& c : shard.sent) c = TrafficCounters{};
    for (auto& c : shard.received) c = TrafficCounters{};
  }
}

void TrafficRecorder::Restore(
    const TrafficCounters& total,
    const std::array<TrafficCounters, kNumMessageKinds>& by_kind,
    std::vector<TrafficCounters> sent,
    std::vector<TrafficCounters> received) {
  assert(sent.size() == received.size());
  Reset();
  EnsurePeers(sent.size());
  // All restored volume lands on shard 0; the aggregate reads fold shards
  // anyway, so the split across shards is unobservable.
  Shard& shard = shards_[0];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.total = total;
  shard.by_kind = by_kind;
  shard.sent = std::move(sent);
  shard.received = std::move(received);
}

}  // namespace hdk::net
