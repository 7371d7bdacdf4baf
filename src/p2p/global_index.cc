#include "p2p/global_index.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <numeric>
#include <tuple>

#include "common/hash.h"
#include "common/stopwatch.h"
#include "sync/reconcile.h"
#include "sync/sketch.h"

namespace hdk::p2p {

namespace {

using Published = DistributedGlobalIndex::Published;
using Ledger = DistributedGlobalIndex::Ledger;
using Contributor = DistributedGlobalIndex::Contributor;
using KeptList = DistributedGlobalIndex::KeptList;

/// Content digest of one replica slot: covers the key's placement hash
/// AND the published entry's content (df, classification, postings), so
/// reconciliation detects stale copies — same key, outdated postings —
/// not just membership differences.
uint64_t EntryDigest(uint64_t key_hash, const hdk::KeyEntry& entry) {
  uint64_t h = Mix64(key_hash ^ 0x53594e43ULL);  // "SYNC"
  h = HashCombine(h, entry.global_df);
  h = HashCombine(h, entry.is_hdk ? 1 : 2);
  for (size_t i = 0; i < entry.postings.size(); ++i) {
    const index::Posting& p = entry.postings[i];
    h = HashCombine(h, (static_cast<uint64_t>(p.doc) << 32) ^
                           (static_cast<uint64_t>(p.tf) << 8) ^ p.doc_length);
  }
  return Mix64(h);
}

/// Postings an InsertPostings message carries for a local list of
/// `local_df` postings. Sender-side truncation: a locally
/// non-discriminative key is certainly globally non-discriminative (paper
/// Section 3: local NDK => global NDK), so the peer only transmits its
/// local top-DFmax postings for it.
uint64_t TransmittedPostings(uint64_t local_df, const HdkParams& params) {
  if (local_df <= params.df_max) return local_df;
  return std::min<uint64_t>(local_df, params.EffectiveNdkTruncation());
}

/// `list`'s top `limit` postings by TruncationScore under `avgdl`.
index::PostingList TopBy(index::PostingList list, size_t limit,
                         double avg_doc_length) {
  list.TruncateTopBy(limit, [avg_doc_length](const index::Posting& p) {
    return hdk::TruncationScore(p, avg_doc_length);
  });
  return list;
}

/// The key's merged list: an HDK publishes it, an NDK keeps it aside.
index::PostingList& MergedOf(Published& slot, Ledger& ledger) {
  return slot.entry.is_hdk ? slot.entry.postings : ledger.merged;
}
const index::PostingList& MergedOf(const Published& slot,
                                   const Ledger& ledger) {
  return slot.entry.is_hdk ? slot.entry.postings : ledger.merged;
}

/// Classifies the key by its global df and places its merged list: an
/// HDK publishes it whole, an NDK keeps it and publishes its top.
void Place(Published& slot, Ledger& ledger, index::PostingList merged,
           const HdkParams& params, double avg_doc_length) {
  hdk::KeyEntry& entry = slot.entry;
  entry.is_hdk = entry.global_df <= params.df_max;
  if (entry.is_hdk) {
    entry.postings = std::move(merged);
    ledger.merged = index::PostingList();
  } else {
    ledger.merged = std::move(merged);
    entry.postings = TopBy(ledger.merged, params.EffectiveNdkTruncation(),
                           avg_doc_length);
  }
}

/// Re-derives the published entry under `avg_doc_length`: every locally
/// truncated contribution's slice of the merged list is replaced by the
/// re-truncation of its kept list, and the result is placed again. A
/// kept list's documents all lie in its contributor's range, so the
/// slice [front, back] holds no other contributor's posting.
void Rederive(Published& slot, Ledger& ledger, const HdkParams& params,
              double avg_doc_length) {
  index::PostingList merged =
      std::exchange(MergedOf(slot, ledger), index::PostingList());
  for (const KeptList& kept : ledger.kept) {
    const std::span<const index::Posting> full = kept.full.postings();
    merged.EraseDocRange(full.front().doc, full.back().doc + 1);
    merged.MergeFrom(
        TopBy(kept.full, params.EffectiveNdkTruncation(), avg_doc_length));
  }
  Place(slot, ledger, std::move(merged), params, avg_doc_length);
}

/// Removes contributor `c`, whose documents are [first, last), from the
/// key's merged list, global df and kept lists. The caller drops the
/// record itself.
void Withdraw(Published& slot, Ledger& ledger, const Contributor& c,
              DocId first, DocId last) {
  MergedOf(slot, ledger).EraseDocRange(first, last);
  slot.entry.global_df -= c.local_df;
  std::erase_if(ledger.kept,
                [&](const KeptList& kept) { return kept.peer == c.peer; });
}

/// Appends a fresh slot for `key` to the table and its side column, or
/// finds the existing one. Returns its position.
size_t Emplace(hdk::KeyMap<Published>& keys, std::vector<Ledger>& ledger,
               uint64_t key_hash, const hdk::TermKey& key) {
  const auto it = keys.try_emplace_hashed(key_hash, key).first;
  const size_t pos = static_cast<size_t>(it - keys.begin());
  if (pos == ledger.size()) ledger.emplace_back();
  return pos;
}

/// Swap-removes the slot at `pos` from the table and its side column
/// alike: the entry moved into `pos` is the one examined next.
void EraseSlot(hdk::KeyMap<Published>& keys, std::vector<Ledger>& ledger,
               size_t pos) {
  keys.erase(keys.begin() + pos);
  if (pos + 1 != ledger.size()) ledger[pos] = std::move(ledger.back());
  ledger.pop_back();
}

/// One contribution in the level barrier's sort: the sort key, where the
/// contribution waits in its run and where its postings start in the
/// run's pool.
struct SortSlot {
  hdk::TermKey key;
  PeerId peer = kInvalidPeer;
  const DistributedGlobalIndex::PendingContribution* pending = nullptr;
  const index::Posting* postings = nullptr;

  /// The contributor's full local list, borrowed from the pool.
  index::PostingList Full() const {
    return index::PostingList::Borrowed({postings, pending->local_df});
  }
};

}  // namespace

DistributedGlobalIndex::DistributedGlobalIndex(const dht::Overlay* overlay,
                                               net::TrafficRecorder* traffic,
                                               ThreadPool* pool,
                                               size_t num_shards,
                                               net::Resilience resilience)
    : overlay_(overlay), traffic_(traffic), pool_(pool), res_(resilience) {
  assert(overlay_ != nullptr);
  assert(traffic_ != nullptr);
  if (res_.replication == 0) res_.replication = 1;
  if (num_shards == 0) num_shards = DefaultShardCount(pool_);
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  EnsureCapacity();
}

size_t DistributedGlobalIndex::DefaultShardCount(const ThreadPool* pool) {
  if (pool == nullptr || pool->num_threads() <= 1) return 1;
  size_t shards = 1;
  while (shards < 4 * pool->num_threads() && shards < 64) shards *= 2;
  return shards;
}

size_t DistributedGlobalIndex::ShardOf(uint64_t key_hash) const {
  // Remixed placement hash: the raw Hash64 also drives the overlay's
  // Responsible() mapping, so remixing decorrelates shard choice from
  // peer choice while keeping the shard stable across overlay changes.
  return shards_.size() == 1
             ? 0
             : static_cast<size_t>(Mix64(key_hash) % shards_.size());
}

void DistributedGlobalIndex::EnsureCapacity() {
  const size_t peers = overlay_->num_peers();
  if (res_.replication > 1) {
    for (auto& shard : shards_) {
      if (shard->replicas.size() < peers) shard->replicas.resize(peers);
    }
  }
  traffic_->EnsurePeers(peers);
  if (res_.injector != nullptr) res_.injector->EnsurePeers(peers);
  if (res_.health != nullptr) res_.health->EnsurePeers(peers);
}

PeerId DistributedGlobalIndex::ResponsiblePeer(const hdk::TermKey& key) const {
  return overlay_->Responsible(key.Hash64());
}

uint64_t DistributedGlobalIndex::InsertPostings(
    ContributionRuns& runs, PeerId src, const hdk::TermKey& key,
    uint64_t key_hash, index::PostingList full_local,
    const HdkParams& params) {
  const uint64_t payload = TransmittedPostings(full_local.size(), params);

  // key_hash IS the key's ring id: one hash drives routing, the
  // destination lookup, the shard choice and the barrier's table probe.
  const PeerId dst = overlay_->Responsible(key_hash);
  const net::Channel channel(traffic_, res_);
  const net::SendOutcome sent =
      channel.SendAssured(src, dst, net::MessageKind::kInsertPostings,
                          payload, overlay_->Route(src, key_hash), key_hash);
  // Undelivered against a live peer means the retry budget ran out: the
  // level barrier's redelivery records the final (delivered) message. A
  // responsible peer that died unannounced still gets the contribution
  // recorded in its key table, unbilled, so that evicting it later
  // re-routes the key like any departure.
  const bool redeliver = !sent.delivered && !channel.PeerDead(dst);

  if (runs.by_shard_.empty()) runs.by_shard_.resize(shards_.size());
  ContributionRun& run = runs.by_shard_[ShardOf(key_hash)];
  const std::span<const index::Posting> full = full_local.postings();
  run.contributions.push_back(PendingContribution{
      key, redeliver, src, key_hash,
      static_cast<uint32_t>(run.postings.size()),
      static_cast<uint32_t>(full.size())});
  run.postings.insert(run.postings.end(), full.begin(), full.end());
  return payload;
}

void DistributedGlobalIndex::Submit(ContributionRuns&& runs) {
  std::lock_guard<std::mutex> lock(submit_mu_);
  for (size_t i = 0; i < runs.by_shard_.size(); ++i) {
    if (!runs.by_shard_[i].contributions.empty()) {
      shards_[i]->runs.push_back(std::move(runs.by_shard_[i]));
    }
  }
  runs.by_shard_.clear();
}

std::span<const index::Posting> DistributedGlobalIndex::ContributionOf(
    PeerId peer, DocId first, DocId last, const hdk::TermKey& key,
    uint64_t key_hash) const {
  const Shard& shard = *shards_[ShardOf(key_hash)];
  const auto it = shard.keys.find_hashed(key_hash, key);
  if (it == shard.keys.end()) return {};
  const Ledger& ledger = shard.ledger[it - shard.keys.begin()];
  const auto by_peer = [](const auto& c, PeerId p) { return c.peer < p; };
  const auto c = std::lower_bound(ledger.contributors.begin(),
                                  ledger.contributors.end(), peer, by_peer);
  if (c == ledger.contributors.end() || c->peer != peer) return {};
  const auto kept = std::lower_bound(ledger.kept.begin(), ledger.kept.end(),
                                     peer, by_peer);
  if (kept != ledger.kept.end() && kept->peer == peer) {
    return kept->full.postings();
  }
  // Sent whole: the merged list's slice of the peer's range.
  const std::span<const index::Posting> merged =
      MergedOf(it->second, ledger).postings();
  const auto doc_less = [](const index::Posting& p, DocId d) {
    return p.doc < d;
  };
  const auto lo =
      std::lower_bound(merged.begin(), merged.end(), first, doc_less);
  const auto hi = std::lower_bound(lo, merged.end(), last, doc_less);
  return {lo, hi};
}

void DistributedGlobalIndex::PublishReplicas(Shard& shard,
                                             const hdk::TermKey& key,
                                             uint64_t key_hash,
                                             const hdk::KeyEntry& entry,
                                             bool record_traffic) {
  if (res_.replication <= 1) return;
  if (shard.replicas.size() < overlay_->num_peers()) {
    shard.replicas.resize(overlay_->num_peers());
  }
  const dht::HolderSet holders = HoldersFor(key_hash);
  const net::Channel channel(traffic_, res_);
  for (size_t i = 1; i < holders.size(); ++i) {
    const PeerId holder = holders[i];
    // The primary pushes the fresh entry to its replica holder directly
    // (it knows the holder from the salted placement): one best-effort
    // 1-hop message. A lost push leaves the holder stale — exactly the
    // divergence the anti-entropy sweep detects and heals.
    if (record_traffic &&
        !channel
             .Send(holders[0], holder, net::MessageKind::kReplicaPush,
                   entry.postings.size(), /*hops=*/1, key_hash)
             .delivered) {
      missed_replica_pushes_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    shard.replicas[holder].try_emplace_hashed(key_hash, key).first->second =
        entry;
  }
}

dht::HolderSet DistributedGlobalIndex::HoldersFor(uint64_t key_hash) const {
  return dht::ReplicaHolders(*overlay_, key_hash, res_.replication);
}

LevelOutcome DistributedGlobalIndex::EndLevelShard(Shard& shard,
                                                   const HdkParams& params,
                                                   double avg_doc_length,
                                                   bool notify_contributors,
                                                   bool record_traffic) {
  LevelOutcome outcome;
  if (shard.runs.empty()) return outcome;

  // One sort by (key, contributor) over the shard's runs. Ascending-key
  // order is shard- and thread-count independent, so the reduced outcome
  // is deterministic everywhere, and each key's contributions come out as
  // one group in ascending peer order whatever order the tasks submitted
  // them in. The sort moves compact slots that carry their own copy of
  // the sort key, so comparisons never chase a pointer; the runs' cached
  // hashes ride along for every downstream probe (key table, overlay
  // routing).
  std::vector<SortSlot> order;
  size_t total = 0;
  for (const ContributionRun& run : shard.runs) {
    total += run.contributions.size();
  }
  order.reserve(total);
  bool any_redeliver = false;
  for (const ContributionRun& run : shard.runs) {
    for (const PendingContribution& c : run.contributions) {
      order.push_back(
          SortSlot{c.key, c.peer, &c, run.postings.data() + c.offset});
      any_redeliver |= c.redeliver;
    }
  }
  std::sort(order.begin(), order.end(),
            [](const SortSlot& a, const SortSlot& b) {
              if (a.key == b.key) return a.peer < b.peer;
              return a.key < b.key;
            });
  // The level barrier stands in for an ack protocol: contributions whose
  // transmission ran out of retries are redelivered here, BEFORE the
  // classification walk, each with its final delivery message, so the
  // published index never misses a contribution. One whose owner has
  // died meanwhile is kept without another message; evicting the owner
  // re-routes it.
  const net::Channel channel(traffic_, res_);
  if (any_redeliver && record_traffic) {
    for (const SortSlot& slot : order) {
      const PendingContribution& c = *slot.pending;
      if (!c.redeliver) continue;
      const PeerId dst = overlay_->Responsible(c.key_hash);
      if (channel.PeerDead(dst)) continue;
      traffic_->Record(slot.peer, dst, net::MessageKind::kInsertPostings,
                       TransmittedPostings(c.local_df, params),
                       overlay_->Route(slot.peer, c.key_hash));
    }
  }

  // One reserve sized from this wave's key count keeps the table rehash
  // out of the per-key merge loop.
  size_t keys = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    keys += i == 0 || !(order[i].key == order[i - 1].key);
  }
  shard.keys.reserve(shard.keys.size() + keys);
  shard.ledger.reserve(shard.keys.size() + keys);

  const auto by_peer = [](const auto& a, const auto& b) {
    return a.peer < b.peer;
  };
  for (size_t first = 0, last = 0; first < order.size(); first = last) {
    const hdk::TermKey& key = order[first].key;
    const uint64_t key_hash = order[first].pending->key_hash;
    last = first + 1;
    while (last < order.size() && order[last].key == key) ++last;

    const size_t pos = Emplace(shard.keys, shard.ledger, key_hash, key);
    Published& slot = shard.keys.entry(pos).second;
    Ledger& ledger = shard.ledger[pos];
    const bool was_published = !ledger.contributors.empty();
    const bool was_ndk = was_published && !slot.entry.is_hdk;

    // The group and the records are both in ascending peer order: append
    // the group and merge the two sorted halves. A whole contribution
    // merges into the merged list and is not kept; a locally truncated
    // one merges its transmitted top and keeps its full list.
    index::PostingList merged =
        std::exchange(MergedOf(slot, ledger), index::PostingList());
    const size_t old_count = ledger.contributors.size();
    const size_t old_kept = ledger.kept.size();
    ledger.contributors.reserve(old_count + (last - first));
    for (size_t i = first; i < last; ++i) {
      const SortSlot& c = order[i];
      const uint32_t local_df = c.pending->local_df;
      ledger.contributors.push_back(Contributor{c.peer, local_df});
      slot.entry.global_df += local_df;
      if (local_df <= params.df_max) {
        merged.Merge(c.Full());
      } else {
        merged.MergeFrom(TopBy(c.Full(), params.EffectiveNdkTruncation(),
                               avg_doc_length));
        // Copied out of the pool, which the runs' release frees.
        index::PostingList full;
        full.Merge(c.Full());
        ledger.kept.push_back(KeptList{c.peer, std::move(full)});
      }
    }
    std::inplace_merge(ledger.contributors.begin(),
                       ledger.contributors.begin() + old_count,
                       ledger.contributors.end(), by_peer);
    std::inplace_merge(ledger.kept.begin(), ledger.kept.begin() + old_kept,
                       ledger.kept.end(), by_peer);
    Place(slot, ledger, std::move(merged), params, avg_doc_length);
    slot.owner = overlay_->Responsible(key_hash);

    if (record_traffic) {
      PublishReplicas(shard, key, key_hash, slot.entry,
                      /*record_traffic=*/true);
    }
    const bool is_ndk = !slot.entry.is_hdk;
    if (is_ndk) {
      ++outcome.ndks;
      if (was_published && !was_ndk) ++outcome.reclassified;
    } else {
      ++outcome.hdks;
    }

    if (is_ndk && notify_contributors) {
      // A key already known to be non-discriminative only informs its NEW
      // contributors (old ones expanded it when they were first notified);
      // a key that just crossed DFmax informs everyone who ever
      // contributed, so that old peers expand it too. Both lists are in
      // ascending peer order.
      std::vector<PeerId> recipients;
      if (was_ndk) {
        recipients.reserve(last - first);
        for (size_t i = first; i < last; ++i) {
          recipients.push_back(order[i].peer);
        }
      } else {
        recipients.reserve(ledger.contributors.size());
        for (const Contributor& c : ledger.contributors) {
          recipients.push_back(c.peer);
        }
      }
      recipients.erase(std::unique(recipients.begin(), recipients.end()),
                       recipients.end());
      // Notifications carry the key only, no postings. The owner knows
      // the contributor directly (source address of the insertion), so
      // each is a single overlay-external message: 1 hop. They are
      // barrier-assured — a lost burst against a live contributor is
      // redelivered right here (we ARE at the barrier). A hard-dead
      // contributor still expands the key, unbilled, so that what it
      // contributes stays the fault-free build's until it is evicted.
      if (record_traffic) {
        const PeerId owner = slot.owner;
        for (PeerId contributor : recipients) {
          const net::SendOutcome sent = channel.SendAssured(
              owner, contributor, net::MessageKind::kNdkNotification,
              /*postings=*/0, /*hops=*/1, key_hash);
          if (!sent.delivered && !channel.PeerDead(contributor)) {
            traffic_->Record(owner, contributor,
                             net::MessageKind::kNdkNotification,
                             /*postings=*/0, /*hops=*/1);
          }
        }
      }
      outcome.notification_messages += recipients.size();
      outcome.notifications.emplace_back(key, std::move(recipients));
    }
  }
  // The runs are spent: free them now rather than carry their capacity
  // into the next level.
  shard.runs.clear();
  return outcome;
}

LevelOutcome DistributedGlobalIndex::EndLevel(const HdkParams& params,
                                              double avg_doc_length,
                                              bool notify_contributors,
                                              bool record_traffic) {
  EnsureCapacity();

  std::vector<LevelOutcome> partials(shards_.size());
  ParallelForEach(pool_, shards_.size(), [&](size_t i) {
    partials[i] = EndLevelShard(*shards_[i], params, avg_doc_length,
                                notify_contributors, record_traffic);
  });

  // Deterministic reduce: counters are sums, and the notification list is
  // globally re-sorted to ascending (key, then already-ascending peers) —
  // independent of the shard and thread counts.
  LevelOutcome outcome;
  size_t total_notifications = 0;
  for (const LevelOutcome& partial : partials) {
    total_notifications += partial.notifications.size();
  }
  outcome.notifications.reserve(total_notifications);
  for (LevelOutcome& partial : partials) {
    outcome.hdks += partial.hdks;
    outcome.ndks += partial.ndks;
    outcome.notification_messages += partial.notification_messages;
    outcome.reclassified += partial.reclassified;
    std::move(partial.notifications.begin(), partial.notifications.end(),
              std::back_inserter(outcome.notifications));
  }
  std::sort(outcome.notifications.begin(), outcome.notifications.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return outcome;
}

uint64_t DistributedGlobalIndex::EraseKeysContaining(const TermIdSet& terms) {
  std::vector<uint64_t> erased(shards_.size(), 0);
  ParallelForEach(pool_, shards_.size(), [&](size_t i) {
    Shard& shard = *shards_[i];
    size_t pos = 0;
    while (pos < shard.keys.size()) {
      const hdk::TermKey& key = shard.keys.entry(pos).first;
      if (!key.ContainsAny(terms)) {
        ++pos;
        continue;
      }
      const uint64_t key_hash = shard.keys.hash_at(pos);
      const PeerId owner = overlay_->Responsible(key_hash);
      // Dropping a replica copy takes one best-effort forget notice per
      // holder. A LOST notice leaves the copy stale — the classic
      // silent-divergence source the anti-entropy sweep exists to heal.
      const net::Channel channel(traffic_, res_);
      const dht::HolderSet holders = HoldersFor(key_hash);
      for (size_t h = 1; h < holders.size(); ++h) {
        const PeerId holder = holders[h];
        if (holder >= shard.replicas.size()) continue;
        if (!channel
                 .Send(owner, holder, net::MessageKind::kReplicaForget,
                       /*postings=*/0, /*hops=*/1, key_hash)
                 .delivered) {
          missed_replica_forgets_.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        auto& replica = shard.replicas[holder];
        auto it = replica.find_hashed(key_hash, key);
        if (it != replica.end()) replica.erase(it);
      }
      EraseSlot(shard.keys, shard.ledger, pos);
      ++erased[i];
    }
  });
  uint64_t total = 0;
  for (uint64_t e : erased) total += e;
  return total;
}

void DistributedGlobalIndex::Retruncate(const HdkParams& params,
                                        double avg_doc_length) {
  EnsureCapacity();
  ParallelForEach(pool_, shards_.size(), [&](size_t i) {
    Shard& shard = *shards_[i];
    for (size_t pos = 0; pos < shard.keys.size(); ++pos) {
      auto& [key, slot] = shard.keys.entry(pos);
      if (slot.entry.is_hdk) continue;
      Rederive(slot, shard.ledger[pos], params, avg_doc_length);
      PublishReplicas(shard, key, shard.keys.hash_at(pos), slot.entry,
                      /*record_traffic=*/false);
    }
  });
}

uint64_t DistributedGlobalIndex::OnOverlayGrown() {
  EnsureCapacity();
  // Re-placement moves keys between PEERS but never between shards (the
  // shard is derived from the key's placement hash, not the peer), so
  // each shard migrates independently.
  std::vector<uint64_t> migrated(shards_.size(), 0);
  ParallelForEach(pool_, shards_.size(), [&](size_t s) {
    hdk::KeyMap<Published>& keys = shards_[s]->keys;
    for (size_t pos = 0; pos < keys.size(); ++pos) {
      Published& slot = keys.entry(pos).second;
      const PeerId to = overlay_->Responsible(keys.hash_at(pos));
      if (to == slot.owner) continue;
      // Handover to the joining (or re-responsible) peer: one direct
      // message carrying the published postings.
      traffic_->Record(slot.owner, to, net::MessageKind::kMaintenance,
                       slot.entry.postings.size(), /*hops=*/1);
      slot.owner = to;
      ++migrated[s];
    }
  });
  // The salted replica placement changed with the overlay: the stale
  // copies stay in place and the recorded reconciliation repairs exactly
  // the keys whose holders changed.
  ReconcileReplicas();
  uint64_t total = 0;
  for (uint64_t m : migrated) total += m;
  return total;
}

DistributedGlobalIndex::DepartureBaseline DistributedGlobalIndex::
    BeginDeparture(PeerId departing, DocId first, DocId last,
                   DepartureStats* stats) {
  DepartureBaseline baseline;
  baseline.shards.resize(shards_.size());

  std::vector<uint64_t> removed_contributions(shards_.size(), 0);
  std::vector<uint64_t> removed_postings(shards_.size(), 0);
  ParallelForEach(pool_, shards_.size(), [&](size_t i) {
    Shard& shard = *shards_[i];
    DepartureBaseline::ShardRepair& repair = baseline.shards[i];
    if (departing < shard.replicas.size()) {
      // Replica entries stay attached to their physical holders.
      shard.replicas.erase(shard.replicas.begin() + departing);
    }

    for (size_t pos = 0; pos < shard.keys.size(); ++pos) {
      auto& [key, slot] = shard.keys.entry(pos);
      Ledger& ledger = shard.ledger[pos];
      // The departed peer's contribution vanishes with it (in the real
      // network its data simply stops being re-served): its range leaves
      // the merged list. The survivors renumber past the freed id,
      // mirroring the overlay.
      std::erase_if(ledger.contributors, [&](Contributor& c) {
        if (c.peer == departing) {
          ++removed_contributions[i];
          removed_postings[i] += c.local_df;
          Withdraw(slot, ledger, c, first, last);
          if (repair.dirty.size() < key.size()) {
            repair.dirty.resize(key.size());
          }
          repair.dirty[key.size() - 1].push_back(static_cast<uint32_t>(pos));
          return true;
        }
        if (c.peer > departing) --c.peer;
        return false;
      });
      for (KeptList& kept : ledger.kept) {
        if (kept.peer > departing) --kept.peer;
      }

      // The departed peer's whole fragment, and every entry whose
      // responsible peer changed, goes to its new owner; FinishDeparture
      // bills each handover with the repaired entry.
      const PeerId from = slot.owner == departing ? kInvalidPeer
                          : slot.owner > departing ? slot.owner - 1
                                                   : slot.owner;
      const uint64_t key_hash = shard.keys.hash_at(pos);
      slot.owner = overlay_->Responsible(key_hash);
      if (slot.owner != from) {
        DepartureBaseline::Change& change =
            repair.changes.try_emplace_hashed(key_hash, key).first->second;
        change.migrated = true;
        change.from = from;
      }
    }
  });
  stats->departed = departing;
  for (size_t i = 0; i < shards_.size(); ++i) {
    stats->removed_contributions += removed_contributions[i];
    stats->removed_postings += removed_postings[i];
  }
  return baseline;
}

DistributedGlobalIndex::LevelRepair DistributedGlobalIndex::RepairLevel(
    DepartureBaseline& baseline, uint32_t level, const HdkParams& params,
    double avg_doc_length, bool facts,
    std::span<const std::pair<DocId, DocId>> ranges,
    const std::function<bool(const hdk::TermKey&)>& suspect,
    const std::function<bool(PeerId, const hdk::TermKey&)>& keeps) {
  std::vector<LevelRepair> parts(shards_.size());
  ParallelForEach(pool_, shards_.size(), [&](size_t i) {
    Shard& shard = *shards_[i];
    DepartureBaseline::ShardRepair& repair = baseline.shards[i];
    LevelRepair& part = parts[i];

    auto repair_key = [&](size_t pos) {
      auto& [key, slot] = shard.keys.entry(pos);
      Ledger& ledger = shard.ledger[pos];
      const uint64_t key_hash = shard.keys.hash_at(pos);
      const bool was_ndk = !slot.entry.is_hdk;
      // Retraction: a survivor keeps only the keys it still generates.
      if (suspect && suspect(key)) {
        std::erase_if(ledger.contributors, [&](const Contributor& c) {
          if (keeps(c.peer, key)) return false;
          ++part.retracted;
          if (facts && was_ndk) part.lost.emplace_back(c.peer, key);
          Withdraw(slot, ledger, c, ranges[c.peer].first,
                   ranges[c.peer].second);
          return true;
        });
      }
      if (ledger.contributors.empty()) {
        // Nobody contributes any more: the key ceases to exist, and its
        // owner drops the entry without traffic. FinishDeparture erases
        // the slot.
        slot = Published();
        ledger = Ledger();
        ++repair.erased_keys;
        return;
      }
      // Every repaired key lost a contributor, so its content changed.
      Rederive(slot, ledger, params, avg_doc_length);
      DepartureBaseline::Change& change =
          repair.changes.try_emplace_hashed(key_hash, key).first->second;
      change.changed = true;
      change.was_ndk = was_ndk;
      // Reverse reclassification: the key is discriminative again, so
      // every surviving contributor loses it as expansion material.
      if (slot.entry.is_hdk && facts && was_ndk) {
        for (const Contributor& c : ledger.contributors) {
          part.lost.emplace_back(c.peer, key);
        }
      }
    };

    if (level <= repair.dirty.size()) {
      for (uint32_t pos : repair.dirty[level - 1]) repair_key(pos);
    }
    if (!suspect) return;
    // The keys holding a contribution its peer no longer generates. A
    // dirty key repaired above keeps only generable contributions, and an
    // erased one none, so neither comes up again.
    for (size_t pos = 0; pos < shard.keys.size(); ++pos) {
      const hdk::TermKey& key = shard.keys.entry(pos).first;
      if (key.size() != level || !suspect(key)) continue;
      const std::vector<Contributor>& contributors =
          shard.ledger[pos].contributors;
      if (std::any_of(contributors.begin(), contributors.end(),
                      [&](const Contributor& c) {
                        return !keeps(c.peer, key);
                      })) {
        repair_key(pos);
      }
    }
  });

  LevelRepair out;
  for (LevelRepair& part : parts) {
    out.retracted += part.retracted;
    std::move(part.lost.begin(), part.lost.end(),
              std::back_inserter(out.lost));
  }
  return out;
}

void DistributedGlobalIndex::FinishDeparture(DepartureBaseline baseline,
                                             const HdkParams& params,
                                             double avg_doc_length,
                                             DepartureStats* stats) {
  assert(baseline.shards.size() == shards_.size());
  std::vector<DepartureStats> parts(shards_.size());
  ParallelForEach(pool_, shards_.size(), [&](size_t i) {
    Shard& shard = *shards_[i];
    // The shard's slice dies with this task, so releasing it runs
    // shard-parallel as well.
    DepartureBaseline::ShardRepair repair = std::move(baseline.shards[i]);
    DepartureStats& part = parts[i];
    part.erased_keys = repair.erased_keys;

    for (size_t pos = 0; pos < shard.keys.size();) {
      auto& [key, slot] = shard.keys.entry(pos);
      Ledger& ledger = shard.ledger[pos];
      // Emptied slots leave the table (swap-remove: the slot moved into
      // `pos` is examined next).
      if (ledger.contributors.empty()) {
        EraseSlot(shard.keys, shard.ledger, pos);
        continue;
      }
      // The average document length shifted: re-derive every NDK, as
      // Retruncate does on growth (a no-op for the keys the level repair
      // already re-derived). Its top is at most DFmax postings.
      if (!slot.entry.is_hdk) {
        const index::PostingList before = slot.entry.postings;
        Rederive(slot, ledger, params, avg_doc_length);
        if (!(slot.entry.postings == before)) {
          DepartureBaseline::Change& change =
              repair.changes.try_emplace_hashed(shard.keys.hash_at(pos), key)
                  .first->second;
          change.changed = true;
          change.was_ndk = !slot.entry.is_hdk;
        }
      }
      ++pos;
    }

    // Bill every handover and in-place change with the repaired entry.
    for (size_t c = 0; c < repair.changes.size(); ++c) {
      const auto& [key, change] = repair.changes.entry(c);
      const uint64_t key_hash = repair.changes.hash_at(c);
      const auto it = shard.keys.find_hashed(key_hash, key);
      if (it == shard.keys.end()) continue;  // erased: counted above
      const hdk::KeyEntry& entry = it->second.entry;
      if (change.changed && change.was_ndk && entry.is_hdk) {
        ++part.reverse_reclassified;
      }
      // The new owner receives the entry from the old owner when it
      // survives; otherwise — and for an in-place re-derivation — it
      // re-pulls it from the lowest-id surviving contributor (the
      // contributors' data stays available, exactly what the table
      // models).
      PeerId src = change.from;
      if (src == kInvalidPeer) {
        src = shard.ledger[it - shard.keys.begin()].contributors.front().peer;
      }
      ++(change.migrated ? part.migrated_keys : part.repaired_keys);
      traffic_->Record(src, it->second.owner, net::MessageKind::kMaintenance,
                       entry.postings.size(), /*hops=*/1);
      part.moved_postings += entry.postings.size();
    }
  });

  for (const DepartureStats& part : parts) {
    stats->erased_keys += part.erased_keys;
    stats->reverse_reclassified += part.reverse_reclassified;
    stats->migrated_keys += part.migrated_keys;
    stats->repaired_keys += part.repaired_keys;
    stats->moved_postings += part.moved_postings;
  }
}

const hdk::KeyEntry* DistributedGlobalIndex::FetchFrom(
    PeerId src, const hdk::TermKey& key) const {
  return FetchFromResilient(src, key).entry;
}

DistributedGlobalIndex::FetchResult DistributedGlobalIndex::FetchFromResilient(
    PeerId src, const hdk::TermKey& key, uint32_t hedge_delay_ticks,
    DeadlineBudget* budget) const {
  FetchResult result;
  // One Hash64 serves routing, the responsible-peer lookup, the shard
  // choice and the table probe.
  const RingId ring_key = key.Hash64();
  if (!FaultsActive()) {
    // Perfect transport: the pre-fault fetch, message for message. (The
    // primary always answers, so replication never enters the path. Zero
    // simulated time passes, so the deadline and hedge knobs are inert.)
    // Unlike the indexing sends, this hot path keeps its own branch
    // instead of going through net::Channel: a variant without it lost
    // 9-12% of hdkbench serve query_qps in 5 of 6 alternating pairs.
    const PeerId dst = overlay_->Responsible(ring_key);
    const size_t hops = overlay_->Route(src, ring_key);
    traffic_->Record(src, dst, net::MessageKind::kKeyProbe, /*postings=*/0,
                     hops);
    result.entry = PeekPrimary(dst, ring_key, key);
    // The response travels back directly (the probe carried the
    // requester's address): 1 hop, carrying the posting payload if the
    // key exists.
    traffic_->Record(dst, src, net::MessageKind::kPostingsResponse,
                     result.entry != nullptr ? result.entry->postings.size()
                                             : 0,
                     /*hops=*/1);
    return result;
  }

  net::Channel channel(traffic_, res_);
  const PeerId primary = overlay_->Responsible(ring_key);
  dht::HolderSet holders = HoldersFor(ring_key);
  // Health-driven failover order: suspects (strained peers) last,
  // relative order otherwise preserved — the primary leads on a healthy
  // network. Partitioned in place: std::stable_partition would allocate a
  // temporary buffer per fetched key.
  if (res_.health != nullptr && holders.size() > 1) {
    PeerId* healthy = holders.begin();
    for (PeerId* it = holders.begin(); it != holders.end(); ++it) {
      if (!res_.health->Suspect(*it)) std::rotate(healthy++, it, it + 1);
    }
  }

  // One probe + response round trip against `holder`. The outcome's
  // ticks are the round trip's simulated completion time; `leg_budget`
  // (when non-null) is charged leg by leg and aborts retries at
  // exhaustion.
  struct Leg {
    bool delivered = false;
    bool deadline_exhausted = false;
    uint64_t ticks = 0;
    const hdk::KeyEntry* entry = nullptr;
  };
  auto round_trip = [&](PeerId holder, DeadlineBudget* leg_budget) {
    Leg leg;
    // The probe routes through the overlay (replica probes are billed
    // the same route: the salted placement is resolved the same way).
    const size_t hops = overlay_->Route(src, ring_key);
    const net::SendOutcome probe =
        channel.SendReliable(src, holder, net::MessageKind::kKeyProbe,
                             /*postings=*/0, hops, ring_key,
                             /*extra_bytes=*/0, leg_budget);
    result.retries += probe.retries;
    leg.ticks += probe.latency_ticks;
    leg.deadline_exhausted |= probe.deadline_exhausted;
    if (!probe.delivered) return leg;
    const hdk::KeyEntry* entry = holder == primary
                                     ? PeekPrimary(primary, ring_key, key)
                                     : PeekReplica(holder, ring_key, key);
    const net::SendOutcome response = channel.SendReliable(
        holder, src, net::MessageKind::kPostingsResponse,
        entry != nullptr ? entry->postings.size() : 0, /*hops=*/1, ring_key,
        /*extra_bytes=*/0, leg_budget);
    result.retries += response.retries;
    leg.ticks += response.latency_ticks;
    leg.deadline_exhausted |= response.deadline_exhausted;
    if (!response.delivered) return leg;
    // A delivered round trip is an authoritative answer — nullptr means
    // the key is ABSENT, not unreachable.
    leg.delivered = true;
    leg.entry = entry;
    return leg;
  };

  size_t i = 0;
  while (i < holders.size()) {
    if (budget != nullptr && budget->exhausted()) {
      result.deadline_exhausted = true;
      break;
    }
    const PeerId holder = holders[i];
    if (i > 0) ++result.failovers;

    if (hedge_delay_ticks == 0) {
      // Plain sequential failover: the leg charges the budget directly.
      const Leg leg = round_trip(holder, budget);
      result.latency_ticks += leg.ticks;
      if (leg.deadline_exhausted) result.deadline_exhausted = true;
      if (leg.delivered) {
        result.entry = leg.entry;
        return result;
      }
      if (result.deadline_exhausted) break;
      ++i;
      continue;
    }

    // Hedged fetch: run the primary leg on a detached clock; when its
    // completion time exceeds the hedge delay, race the next available
    // holder. The two legs overlap in simulated time, so they run
    // budget-free and the WINNER's effective completion time is charged
    // once — but both legs' messages and retries are real traffic.
    const Leg primary_leg = round_trip(holder, nullptr);
    if (primary_leg.delivered && primary_leg.ticks <= hedge_delay_ticks) {
      result.latency_ticks += primary_leg.ticks;
      if (budget != nullptr) budget->Charge(primary_leg.ticks);
      result.entry = primary_leg.entry;
      return result;
    }
    // Hedge target: the next holder in failover order.
    const size_t j = i + 1;
    if (j >= holders.size()) {
      // No replica left to hedge against: the primary leg stands alone.
      result.latency_ticks += primary_leg.ticks;
      if (budget != nullptr) budget->Charge(primary_leg.ticks);
      if (primary_leg.delivered) {
        result.entry = primary_leg.entry;
        return result;
      }
      break;
    }
    ++result.hedges_fired;
    const Leg hedge_leg = round_trip(holders[j], nullptr);
    // The hedge started `hedge_delay_ticks` after the primary, so its
    // effective completion is shifted; ties go to the primary.
    const uint64_t hedge_effective = hedge_delay_ticks + hedge_leg.ticks;
    if (primary_leg.delivered &&
        (!hedge_leg.delivered || primary_leg.ticks <= hedge_effective)) {
      result.latency_ticks += primary_leg.ticks;
      if (budget != nullptr) budget->Charge(primary_leg.ticks);
      result.entry = primary_leg.entry;
      return result;
    }
    if (hedge_leg.delivered) {
      ++result.hedge_wins;
      result.latency_ticks += hedge_effective;
      if (budget != nullptr) budget->Charge(hedge_effective);
      result.entry = hedge_leg.entry;
      return result;
    }
    // Both legs failed: the walk waited out the slower failure, and the
    // hedge holder counts as one more failed-over attempt.
    const uint64_t failed_ticks =
        std::max<uint64_t>(primary_leg.ticks, hedge_effective);
    result.latency_ticks += failed_ticks;
    if (budget != nullptr) budget->Charge(failed_ticks);
    ++result.failovers;
    i = j + 1;
  }
  result.unreachable = true;
  return result;
}

const hdk::KeyEntry* DistributedGlobalIndex::PeekReplica(
    PeerId holder, uint64_t key_hash, const hdk::TermKey& key) const {
  const Shard& shard = *shards_[ShardOf(key_hash)];
  if (holder >= shard.replicas.size()) return nullptr;
  const auto& replica = shard.replicas[holder];
  auto it = replica.find_hashed(key_hash, key);
  return it == replica.end() ? nullptr : &it->second;
}

void DistributedGlobalIndex::RebuildReplicas() {
  if (res_.replication <= 1) return;
  EnsureCapacity();
  ParallelForEach(pool_, shards_.size(), [&](size_t i) {
    Shard& shard = *shards_[i];
    shard.replicas.clear();
    shard.replicas.resize(overlay_->num_peers());
    for (size_t pos = 0; pos < shard.keys.size(); ++pos) {
      const auto& [key, slot] = shard.keys.entry(pos);
      const uint64_t key_hash = shard.keys.hash_at(pos);
      const dht::HolderSet holders = HoldersFor(key_hash);
      for (size_t h = 1; h < holders.size(); ++h) {
        shard.replicas[holders[h]]
            .try_emplace_hashed(key_hash, key)
            .first->second = slot.entry;
      }
    }
  });
}

sync::SyncStats DistributedGlobalIndex::ReconcileReplicas() {
  sync::SyncStats stats;
  if (res_.replication <= 1 || overlay_->num_peers() < 2) return stats;
  EnsureCapacity();
  ++sync_epoch_;
  const sync::SyncConfig& cfg = res_.sync;

  const size_t num_peers = overlay_->num_peers();
  // Holder-parallel workers write shard.replicas[h] without resizing.
  for (auto& shard : shards_) {
    if (shard->replicas.size() < num_peers) shard->replicas.resize(num_peers);
  }

  // One replica slot of a pair: its content digest and where its entry
  // sits — position `pos` of the key table (desired side) or of the
  // holder's replica map (actual side) in shard `shard`.
  struct Slot {
    uint64_t digest;
    PeerId primary;
    uint32_t pos;
    uint32_t postings;
    uint16_t shard;
    bool actual;
  };
  assert(shards_.size() <= UINT16_MAX + 1);

  // Phase 1 (shard-parallel): collect what each holder SHOULD store
  // (desired: published entries x salted placement) and what it DOES store
  // (actual: the replica maps). slots[s][h]: shard s's slots of holder h.
  Stopwatch collect_watch;
  std::vector<std::vector<std::vector<Slot>>> slots(shards_.size());
  ParallelForEach(pool_, shards_.size(), [&](size_t s) {
    const Shard& shard = *shards_[s];
    std::vector<std::vector<Slot>>& part = slots[s];
    part.resize(num_peers);
    for (size_t pos = 0; pos < shard.keys.size(); ++pos) {
      const Published& published = shard.keys.entry(pos).second;
      const uint64_t key_hash = shard.keys.hash_at(pos);
      const dht::HolderSet holders = HoldersFor(key_hash);
      assert(holders[0] == published.owner);
      const Slot slot{EntryDigest(key_hash, published.entry), published.owner,
                      static_cast<uint32_t>(pos),
                      static_cast<uint32_t>(published.entry.postings.size()),
                      static_cast<uint16_t>(s), false};
      for (size_t i = 1; i < holders.size(); ++i) {
        part[holders[i]].push_back(slot);
      }
    }
    const size_t tracked = std::min<size_t>(shard.replicas.size(), num_peers);
    for (PeerId holder = 0; holder < tracked; ++holder) {
      const auto& replica = shard.replicas[holder];
      for (size_t pos = 0; pos < replica.size(); ++pos) {
        const uint64_t key_hash = replica.hash_at(pos);
        part[holder].push_back(
            Slot{EntryDigest(key_hash, replica.entry(pos).second),
                 overlay_->Responsible(key_hash), static_cast<uint32_t>(pos),
                 0, static_cast<uint16_t>(s), true});
      }
    }
  });
  sync_timings_.collect_seconds += collect_watch.ElapsedSeconds();

  // A subtracted sketch depends only on the symmetric difference of the
  // two sets, so every identical pair gets the plan of two empty sets.
  Stopwatch pairs_watch;
  const sync::PairPlan identical_plan = sync::PlanPairSync({}, {}, cfg);

  // Phase 2 (holder-parallel): reconcile each (primary, holder) pair.
  // Worker h mutates only shard.replicas[h] (the key table is read-only),
  // so workers never touch the same map; fault decisions are pure hashes
  // salted by (epoch, pair, leg), so the outcome is thread-independent.
  std::vector<sync::SyncStats> partials(num_peers);
  ParallelForEach(pool_, num_peers, [&](size_t h) {
    sync::SyncStats& part = partials[h];
    net::Channel channel(traffic_, res_);
    const PeerId holder = static_cast<PeerId>(h);

    // Counting sort of the holder's slots into per-primary runs.
    std::vector<size_t> at(num_peers + 1, 0);
    for (const auto& part_slots : slots) {
      for (const Slot& slot : part_slots[h]) ++at[slot.primary + 1];
    }
    std::partial_sum(at.begin(), at.end(), at.begin());
    std::vector<Slot> runs(at.back());
    std::vector<size_t> next(at.begin(), at.end() - 1);
    for (const auto& part_slots : slots) {
      for (const Slot& slot : part_slots[h]) {
        runs[next[slot.primary]++] = slot;
      }
    }

    // The repairs are applied after the last pair, while every slot's
    // position is still valid (a key belongs to one pair only).
    std::vector<Slot> drops, ships;
    std::vector<Slot> ship, drop;  // one pair's difference, digest order
    std::vector<uint64_t> ship_digests, drop_digests;
    for (PeerId primary = 0; primary < num_peers; ++primary) {
      const auto run = runs.begin() + at[primary];
      const auto run_end = runs.begin() + at[primary + 1];
      if (run == run_end) continue;
      ++part.pairs_checked;
      if (res_.injector != nullptr && res_.injector->active() &&
          (res_.injector->PeerDead(primary) ||
           res_.injector->PeerDead(holder))) {
        ++part.pairs_unreachable;
        continue;
      }

      // The pair's fingerprint per side: slot count and wrapping sum of
      // mixed digests, the check PlanPairSync verifies decodes by.
      uint64_t want = 0, have = 0, want_sum = 0, have_sum = 0;
      uint64_t want_postings = 0;
      for (auto it = run; it != run_end; ++it) {
        (it->actual ? have : want) += 1;
        (it->actual ? have_sum : want_sum) += Mix64(it->digest);
        want_postings += it->postings;  // 0 on the actual side
      }
      const bool diverged = want != have || want_sum != have_sum;
      ship.clear();
      drop.clear();
      ship_digests.clear();
      drop_digests.clear();
      if (diverged) {
        // A digest on both sides cancels; the rest is the difference.
        std::sort(run, run_end, [](const Slot& a, const Slot& b) {
          return a.digest < b.digest;
        });
        for (auto it = run; it != run_end; ++it) {
          if (it + 1 != run_end && it[1].digest == it->digest) {
            ++it;
          } else {
            (it->actual ? drop : ship).push_back(*it);
          }
        }
        for (const Slot& slot : ship) ship_digests.push_back(slot.digest);
        for (const Slot& slot : drop) drop_digests.push_back(slot.digest);
      }
      const sync::PairPlan plan =
          diverged ? sync::PlanPairSync(ship_digests, drop_digests, cfg)
                   : identical_plan;

      const uint64_t pair_salt = Mix64(HashCombine(
          HashCombine(0x53594e43ULL, sync_epoch_),
          (static_cast<uint64_t>(primary) << 32) | holder));
      // One leg of the exchange: reliable (retried), atomically gating
      // the pair — if it stays undelivered the pair is skipped whole.
      auto leg = [&](PeerId src, PeerId dst, net::MessageKind kind,
                     uint64_t postings, uint64_t leg_idx,
                     uint64_t extra_bytes) {
        const net::SendOutcome sent =
            channel.SendReliable(src, dst, kind, postings, /*hops=*/1,
                                 pair_salt + leg_idx, extra_bytes);
        part.messages += 1 + sent.retries;
        if (!sent.delivered) {
          ++part.pairs_unreachable;
          return false;
        }
        return true;
      };
      auto apply = [&] {
        drops.insert(drops.end(), drop.begin(), drop.end());
        ships.insert(ships.end(), ship.begin(), ship.end());
      };
      // Billed as a re-send of the whole desired bucket; replacing only
      // the difference leaves the same replica state.
      auto full_sync = [&] {
        if (!leg(primary, holder, net::MessageKind::kSyncFull, want_postings,
                 /*leg_idx=*/9, /*extra_bytes=*/8 * want)) {
          return;
        }
        if (diverged) ++part.pairs_diverged;
        ++part.full_syncs;
        ++(want == 0 || have == 0 ? part.full_syncs_new_side
                                  : part.full_syncs_rejected);
        part.full_keys += want;
        part.full_postings += want_postings;
        apply();
      };

      // The legs bill exactly what would travel; any lost leg aborts the
      // pair with nothing applied.
      const uint64_t ibf_bytes =
          static_cast<uint64_t>(plan.ibf_cells) * sync::Ibf::kCellBytes;
      const uint64_t strata_bytes = plan.sketch_bytes - ibf_bytes;
      part.estimated_diff += plan.estimated_diff;

      // Leg 1: holder -> primary, the holder's strata estimator.
      if (!leg(holder, primary, net::MessageKind::kSyncStrata, 0,
               /*leg_idx=*/1, strata_bytes)) {
        continue;
      }
      ++part.sketch_messages;
      part.sketch_bytes += strata_bytes;

      // Leg 2: primary -> holder, the difference IBF (skipped when the
      // estimate already exceeded the cell budget).
      if (plan.ibf_cells > 0) {
        if (!leg(primary, holder, net::MessageKind::kSyncIbf, 0,
                 /*leg_idx=*/2, ibf_bytes)) {
          continue;
        }
        ++part.sketch_messages;
        part.sketch_bytes += ibf_bytes;
      }

      if (!plan.ok) {
        full_sync();  // decode failed: deterministic degrade, no decode risk
        continue;
      }
      part.decoded_diff += plan.ship.size() + plan.drop.size();
      if (plan.ship.empty() && plan.drop.empty()) continue;  // in sync

      ++part.pairs_diverged;
      if (plan.ship != ship_digests || plan.drop != drop_digests) {
        // A decode other than the difference should be impossible past
        // the planner's checksum — degrade to full sync regardless.
        full_sync();
        continue;
      }
      uint64_t ship_postings = 0;
      for (const Slot& slot : ship) ship_postings += slot.postings;
      // Leg 3: holder -> primary, the decoded want-list (key digests);
      // leg 4: primary -> holder, the missing postings.
      if (!ship.empty()) {
        if (!leg(holder, primary, net::MessageKind::kSyncDelta, 0,
                 /*leg_idx=*/3, 8 * ship.size()) ||
            !leg(primary, holder, net::MessageKind::kSyncDelta, ship_postings,
                 /*leg_idx=*/4, 0)) {
          continue;
        }
      }
      apply();
      part.delta_keys += ship.size();
      part.delta_postings += ship_postings;
      part.dropped_keys += drop.size();
    }

    // Drops first: a stale-content key is in both lists (old digest
    // dropped, fresh digest shipped). Descending positions per map, so
    // each swap-remove moves only an entry that stays.
    std::sort(drops.begin(), drops.end(), [](const Slot& a, const Slot& b) {
      return std::tie(a.shard, a.pos) > std::tie(b.shard, b.pos);
    });
    for (const Slot& slot : drops) {
      auto& replica = shards_[slot.shard]->replicas[holder];
      replica.erase(replica.begin() + slot.pos);
    }
    for (const Slot& slot : ships) {
      const auto& keys = shards_[slot.shard]->keys;
      shards_[slot.shard]
          ->replicas[holder]
          .try_emplace_hashed(keys.hash_at(slot.pos),
                              keys.entry(slot.pos).first)
          .first->second = keys.entry(slot.pos).second.entry;
    }
  });
  sync_timings_.pairs_seconds += pairs_watch.ElapsedSeconds();

  for (const sync::SyncStats& part : partials) stats.Add(part);
  sync_stats_.Add(stats);
  return stats;
}

uint64_t DistributedGlobalIndex::CountReplicaDivergence() const {
  if (res_.replication <= 1) return 0;
  // Symmetric difference between the (holder, key_hash, digest) slot set
  // RebuildReplicas would derive and the one the replica maps hold: a
  // missing or extra copy counts 1, a stale-content copy counts 2 (its
  // old and new digests each differ).
  std::vector<std::tuple<PeerId, uint64_t, uint64_t>> want, have;
  for (const auto& shard : shards_) {
    for (size_t pos = 0; pos < shard->keys.size(); ++pos) {
      const uint64_t key_hash = shard->keys.hash_at(pos);
      const uint64_t digest =
          EntryDigest(key_hash, shard->keys.entry(pos).second.entry);
      const dht::HolderSet holders = HoldersFor(key_hash);
      for (size_t i = 1; i < holders.size(); ++i) {
        want.emplace_back(holders[i], key_hash, digest);
      }
    }
    for (PeerId holder = 0; holder < shard->replicas.size(); ++holder) {
      const auto& replica = shard->replicas[holder];
      for (size_t pos = 0; pos < replica.size(); ++pos) {
        const uint64_t key_hash = replica.hash_at(pos);
        have.emplace_back(holder, key_hash,
                          EntryDigest(key_hash, replica.entry(pos).second));
      }
    }
  }
  std::sort(want.begin(), want.end());
  std::sort(have.begin(), have.end());
  uint64_t divergent = 0;
  size_t wi = 0, ai = 0;
  while (wi < want.size() || ai < have.size()) {
    if (ai >= have.size() || (wi < want.size() && want[wi] < have[ai])) {
      ++divergent;
      ++wi;
    } else if (wi >= want.size() || have[ai] < want[wi]) {
      ++divergent;
      ++ai;
    } else {
      ++wi;
      ++ai;
    }
  }
  return divergent;
}

const hdk::KeyEntry* DistributedGlobalIndex::Peek(
    const hdk::TermKey& key) const {
  const uint64_t key_hash = key.Hash64();
  return PeekPrimary(overlay_->Responsible(key_hash), key_hash, key);
}

const hdk::KeyEntry* DistributedGlobalIndex::PeekPrimary(
    PeerId owner, uint64_t key_hash, const hdk::TermKey& key) const {
  const Shard& shard = *shards_[ShardOf(key_hash)];
  const auto it = shard.keys.find_hashed(key_hash, key);
  return it == shard.keys.end() || it->second.owner != owner
             ? nullptr
             : &it->second.entry;
}

uint64_t DistributedGlobalIndex::StoredPostingsAt(PeerId peer) const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    for (const auto& [key, slot] : shard->keys) {
      if (slot.owner == peer) total += slot.entry.postings.size();
    }
  }
  return total;
}

uint64_t DistributedGlobalIndex::TotalStoredPostings() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    for (const auto& [key, slot] : shard->keys) {
      if (slot.owner != kInvalidPeer) total += slot.entry.postings.size();
    }
  }
  return total;
}

uint64_t DistributedGlobalIndex::KeysAt(PeerId peer) const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    for (const auto& [key, slot] : shard->keys) total += slot.owner == peer;
  }
  return total;
}

uint64_t DistributedGlobalIndex::TotalKeys() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    for (const auto& [key, slot] : shard->keys) {
      total += slot.owner != kInvalidPeer;
    }
  }
  return total;
}

void DistributedGlobalIndex::CountKeys(uint32_t level, uint64_t* hdks,
                                       uint64_t* ndks) const {
  uint64_t h = 0, n = 0;
  for (const auto& shard : shards_) {
    for (const auto& [key, slot] : shard->keys) {
      if (slot.owner == kInvalidPeer) continue;
      if (level != 0 && key.size() != level) continue;
      if (slot.entry.is_hdk) {
        ++h;
      } else {
        ++n;
      }
    }
  }
  if (hdks != nullptr) *hdks = h;
  if (ndks != nullptr) *ndks = n;
}

hdk::HdkIndexContents DistributedGlobalIndex::ExportContents() const {
  hdk::HdkIndexContents out;
  for (const auto& shard : shards_) {
    for (const auto& [key, slot] : shard->keys) {
      if (slot.owner != kInvalidPeer) out.Put(key, slot.entry);
    }
  }
  return out;
}

bool DistributedGlobalIndex::HasPendingContributions() const {
  for (const auto& shard : shards_) {
    if (!shard->runs.empty()) return true;
  }
  return false;
}

const hdk::KeyMap<DistributedGlobalIndex::Published>&
DistributedGlobalIndex::ShardKeys(size_t shard) const {
  return shards_[shard]->keys;
}

const std::vector<DistributedGlobalIndex::Ledger>&
DistributedGlobalIndex::ShardLedger(size_t shard) const {
  return shards_[shard]->ledger;
}

void DistributedGlobalIndex::AdoptShardState(size_t shard,
                                             hdk::KeyMap<Published> keys,
                                             std::vector<Ledger> ledger) {
  Shard& s = *shards_[shard];
  assert(s.keys.empty() && s.runs.empty());
  assert(keys.size() == ledger.size());
  s.keys = std::move(keys);
  s.ledger = std::move(ledger);
}

void DistributedGlobalIndex::AdoptEntry(const hdk::TermKey& key,
                                        uint64_t key_hash,
                                        Published published, Ledger ledger) {
  Shard& s = *shards_[ShardOf(key_hash)];
  const size_t pos = Emplace(s.keys, s.ledger, key_hash, key);
  s.keys.entry(pos).second = std::move(published);
  s.ledger[pos] = std::move(ledger);
}

}  // namespace hdk::p2p
