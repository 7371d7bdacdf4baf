#include "p2p/global_index.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <tuple>

#include "common/hash.h"
#include "sync/reconcile.h"
#include "sync/sketch.h"

namespace hdk::p2p {

namespace {

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
  if (shards_.front()->fragments.size() < overlay_->num_peers()) {
    for (auto& shard : shards_) {
      shard->fragments.resize(overlay_->num_peers());
      if (res_.replication > 1) {
        shard->replicas.resize(overlay_->num_peers());
      }
    }
    traffic_->EnsurePeers(overlay_->num_peers());
  }
  if (res_.injector != nullptr) res_.injector->EnsurePeers(overlay_->num_peers());
  if (res_.health != nullptr) res_.health->EnsurePeers(overlay_->num_peers());
}

PeerId DistributedGlobalIndex::ResponsiblePeer(const hdk::TermKey& key) const {
  return overlay_->Responsible(key.Hash64());
}

PeerId DistributedGlobalIndex::ResponsiblePeerHashed(uint64_t key_hash) const {
  return overlay_->Responsible(key_hash);
}

uint64_t DistributedGlobalIndex::InsertPostings(PeerId src,
                                                const hdk::TermKey& key,
                                                uint64_t key_hash,
                                                index::PostingList full_local,
                                                const HdkParams& params,
                                                double avg_doc_length,
                                                bool record_traffic) {
  // Sender-side truncation: a locally non-discriminative key is certainly
  // globally non-discriminative (paper Section 3: local NDK => global NDK),
  // so the peer only transmits its local top-DFmax postings for it.
  uint64_t payload = full_local.size();
  if (full_local.size() > params.df_max) {
    payload = std::min<uint64_t>(payload, params.EffectiveNdkTruncation());
  }

  if (record_traffic) {
    // key_hash IS the key's ring id: one hash drives routing, the
    // destination lookup, the shard choice and the pending-buffer probe.
    const PeerId dst = overlay_->Responsible(key_hash);
    const size_t hops = overlay_->Route(src, key_hash);
    if (!FaultsActive()) {
      traffic_->Record(src, dst, net::MessageKind::kInsertPostings, payload,
                       hops);
    } else {
      net::Channel channel(traffic_, res_);
      const net::SendOutcome sent = channel.SendAssured(
          src, dst, net::MessageKind::kInsertPostings, payload, hops,
          key_hash);
      if (!sent.delivered) {
        if (channel.PeerDead(dst)) {
          // The responsible peer died unannounced: the contribution is
          // gone until eviction + departure repair replays the ledger.
          lost_contributions_.fetch_add(1, std::memory_order_relaxed);
          return payload;
        }
        // Retry budget exhausted against a live peer: park the
        // contribution for the level barrier, whose redelivery records
        // the final (delivered) message.
        Shard& shard = *shards_[ShardOf(key_hash)];
        std::lock_guard<std::mutex> lock(shard.insert_mu);
        shard.redelivery.push_back(Shard::Redelivery{
            src, key, key_hash, std::move(full_local), payload});
        return payload;
      }
    }
  }

  Shard& shard = *shards_[ShardOf(key_hash)];
  {
    std::lock_guard<std::mutex> lock(shard.insert_mu);
    shard.pending.try_emplace_hashed(key_hash, key)
        .first->second.push_back(Contribution{src, std::move(full_local)});
  }
  (void)avg_doc_length;  // truncation choice is re-derived at publish time
  return payload;
}

void DistributedGlobalIndex::RebuildCache(LedgerEntry& ledger,
                                          const HdkParams& params,
                                          double avg_doc_length) const {
  const Freq trunc_limit = params.EffectiveNdkTruncation();
  auto score = [avg_doc_length](const index::Posting& p) {
    return hdk::TruncationScore(p, avg_doc_length);
  };
  ledger.global_df = 0;
  ledger.merged_locals = index::PostingList();
  for (const Contribution& c : ledger.contributions) {
    ledger.global_df += c.full.size();
    if (c.full.size() > params.df_max) {
      index::PostingList truncated = c.full;
      truncated.TruncateTopBy(trunc_limit, score);
      ledger.merged_locals.MergeFrom(std::move(truncated));
    } else {
      ledger.merged_locals.Merge(c.full);
    }
  }
}

bool DistributedGlobalIndex::Publish(Shard& shard, const hdk::TermKey& key,
                                     uint64_t key_hash, LedgerEntry& ledger,
                                     const HdkParams& params,
                                     double avg_doc_length,
                                     bool record_traffic) {
  const Freq trunc_limit = params.EffectiveNdkTruncation();

  hdk::KeyEntry entry;
  entry.global_df = ledger.global_df;
  entry.is_hdk = entry.global_df <= params.df_max;
  entry.postings = ledger.merged_locals;  // copy: the cache lives on
  if (!entry.is_hdk) {
    entry.postings.TruncateTopBy(
        trunc_limit, [avg_doc_length](const index::Posting& p) {
          return hdk::TruncationScore(p, avg_doc_length);
        });
  }

  ledger.published_ndk = !entry.is_hdk;
  // Some contribution was locally truncated iff the merged cache is
  // shorter than the global df.
  ledger.truncation_sensitive =
      !entry.is_hdk || ledger.merged_locals.size() < ledger.global_df;

  const bool is_ndk = !entry.is_hdk;
  auto& fragment = shard.fragments[overlay_->Responsible(key_hash)];
  hdk::KeyEntry& stored =
      fragment.try_emplace_hashed(key_hash, key).first->second;
  stored = std::move(entry);
  PublishReplicas(shard, key, key_hash, stored, record_traffic);
  return is_ndk;
}

void DistributedGlobalIndex::PublishReplicas(Shard& shard,
                                             const hdk::TermKey& key,
                                             uint64_t key_hash,
                                             const hdk::KeyEntry& entry,
                                             bool record_traffic) {
  if (res_.replication <= 1) return;
  if (replica_defer_) return;  // departure replay: FinishDeparture reconciles
  if (shard.replicas.size() < shard.fragments.size()) {
    shard.replicas.resize(shard.fragments.size());
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

void DistributedGlobalIndex::DrainRedelivery(Shard& shard,
                                             bool record_traffic) {
  if (shard.redelivery.empty()) return;
  // The queue order depends on the insert wave's thread interleaving;
  // sort so the barrier processes items in a reproducible sequence.
  std::sort(shard.redelivery.begin(), shard.redelivery.end(),
            [](const Shard::Redelivery& a, const Shard::Redelivery& b) {
              return std::tie(a.key, a.src) < std::tie(b.key, b.src);
            });
  for (Shard::Redelivery& item : shard.redelivery) {
    const PeerId dst = overlay_->Responsible(item.key_hash);
    if (res_.injector != nullptr && res_.injector->PeerDead(dst)) {
      lost_contributions_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (record_traffic) {
      traffic_->Record(item.src, dst, net::MessageKind::kInsertPostings,
                       item.payload, overlay_->Route(item.src, item.key_hash));
    }
    shard.pending.try_emplace_hashed(item.key_hash, item.key)
        .first->second.push_back(
            Contribution{item.src, std::move(item.full)});
  }
  shard.redelivery.clear();
}

LevelOutcome DistributedGlobalIndex::EndLevelShard(Shard& shard,
                                                   const HdkParams& params,
                                                   double avg_doc_length,
                                                   bool notify_contributors,
                                                   bool record_traffic) {
  LevelOutcome outcome;
  // The level barrier stands in for an ack protocol: contributions whose
  // transmission ran out of retries are redelivered here, BEFORE the
  // classification scan, so the published index never misses a
  // contribution that wasn't addressed to a dead peer.
  DrainRedelivery(shard, record_traffic);
  if (shard.pending.empty()) return outcome;

  const Freq trunc_limit = params.EffectiveNdkTruncation();
  auto score = [avg_doc_length](const index::Posting& p) {
    return hdk::TruncationScore(p, avg_doc_length);
  };

  // Ascending-key order: shard- and thread-count independent, so the
  // reduced outcome is deterministic everywhere. The pending table's
  // cached hashes ride along — every downstream probe (ledger, fragment,
  // overlay routing) reuses them instead of re-hashing the term array.
  std::vector<std::pair<hdk::TermKey, uint64_t>> keys;
  keys.reserve(shard.pending.size());
  for (size_t i = 0; i < shard.pending.size(); ++i) {
    keys.emplace_back(shard.pending.entry(i).first, shard.pending.hash_at(i));
  }
  std::sort(keys.begin(), keys.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // One reserve sized from this wave keeps the ledger rehash out of the
  // per-key merge loop.
  shard.ledger.reserve(shard.ledger.size() + keys.size());

  for (const auto& [key, key_hash] : keys) {
    std::vector<Contribution>& contributions =
        shard.pending.find_hashed(key_hash, key)->second;
    LedgerEntry& ledger =
        shard.ledger.try_emplace_hashed(key_hash, key).first->second;
    const bool was_published = !ledger.contributions.empty();
    const bool was_ndk = ledger.published_ndk;

    std::vector<PeerId> new_contributors;
    new_contributors.reserve(contributions.size());
    for (Contribution& c : contributions) {
      new_contributors.push_back(c.peer);
      // Fold the new contribution into the merge cache (sender-side
      // truncation re-applied exactly as InsertPostings transmitted it).
      ledger.global_df += c.full.size();
      if (c.full.size() > params.df_max) {
        index::PostingList truncated = c.full;
        truncated.TruncateTopBy(trunc_limit, score);
        ledger.merged_locals.MergeFrom(std::move(truncated));
      } else {
        ledger.merged_locals.Merge(c.full);
      }
      ledger.contributions.push_back(std::move(c));
    }
    std::sort(ledger.contributions.begin(), ledger.contributions.end(),
              [](const Contribution& a, const Contribution& b) {
                return a.peer < b.peer;
              });

    const bool is_ndk = Publish(shard, key, key_hash, ledger, params,
                                avg_doc_length, record_traffic);
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
      // contributed, so that old peers expand it too.
      std::vector<PeerId> recipients;
      if (was_ndk) {
        recipients = std::move(new_contributors);
      } else {
        recipients.reserve(ledger.contributions.size());
        for (const Contribution& c : ledger.contributions) {
          recipients.push_back(c.peer);
        }
      }
      std::sort(recipients.begin(), recipients.end());
      recipients.erase(std::unique(recipients.begin(), recipients.end()),
                       recipients.end());
      const PeerId owner = ResponsiblePeerHashed(key_hash);
      if (!record_traffic || !FaultsActive()) {
        for (PeerId contributor : recipients) {
          // Notifications carry the key only, no postings. The owner
          // knows the contributor directly (source address of the
          // insertion), so this is a single overlay-external message:
          // 1 hop.
          if (record_traffic) {
            traffic_->Record(owner, contributor,
                             net::MessageKind::kNdkNotification,
                             /*postings=*/0, /*hops=*/1);
          }
          ++outcome.notification_messages;
        }
        outcome.notifications.emplace_back(key, std::move(recipients));
      } else {
        // Faulty transport: notifications are barrier-assured — a lost
        // burst against a live contributor is redelivered right here
        // (we ARE at the barrier), only a hard-dead contributor misses
        // its expansion (repaired by eviction + departure replay).
        net::Channel channel(traffic_, res_);
        std::vector<PeerId> reached;
        reached.reserve(recipients.size());
        for (PeerId contributor : recipients) {
          const net::SendOutcome sent = channel.SendAssured(
              owner, contributor, net::MessageKind::kNdkNotification,
              /*postings=*/0, /*hops=*/1, key_hash);
          if (!sent.delivered) {
            if (channel.PeerDead(contributor)) {
              lost_notifications_.fetch_add(1, std::memory_order_relaxed);
              continue;
            }
            traffic_->Record(owner, contributor,
                             net::MessageKind::kNdkNotification,
                             /*postings=*/0, /*hops=*/1);
          }
          reached.push_back(contributor);
          ++outcome.notification_messages;
        }
        outcome.notifications.emplace_back(key, std::move(reached));
      }
    }
  }
  shard.pending.clear();
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

uint64_t DistributedGlobalIndex::EraseKeysContaining(TermId t) {
  std::vector<uint64_t> erased(shards_.size(), 0);
  ParallelForEach(pool_, shards_.size(), [&](size_t i) {
    Shard& shard = *shards_[i];
    size_t pos = 0;
    while (pos < shard.ledger.size()) {
      const hdk::TermKey& key = shard.ledger.entry(pos).first;
      if (!key.Contains(t)) {
        ++pos;
        continue;
      }
      const uint64_t key_hash = shard.ledger.hash_at(pos);
      const PeerId owner = overlay_->Responsible(key_hash);
      if (owner < shard.fragments.size()) {
        auto& fragment = shard.fragments[owner];
        auto it = fragment.find_hashed(key_hash, key);
        if (it != fragment.end()) fragment.erase(it);
      }
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
      // Swap-remove: the entry moved into `pos` is examined next.
      shard.ledger.erase(shard.ledger.begin() + pos);
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
    for (size_t pos = 0; pos < shard.ledger.size(); ++pos) {
      auto& [key, ledger] = shard.ledger.entry(pos);
      if (ledger.truncation_sensitive) {
        RebuildCache(ledger, params, avg_doc_length);
        Publish(shard, key, shard.ledger.hash_at(pos), ledger, params,
                avg_doc_length);
      }
    }
  });
}

uint64_t DistributedGlobalIndex::OnOverlayGrown() {
  EnsureCapacity();
  // Re-placement moves keys between PEER slots but never between shards
  // (the shard is derived from the key's placement hash, not the peer),
  // so each shard migrates independently.
  std::vector<uint64_t> migrated(shards_.size(), 0);
  ParallelForEach(pool_, shards_.size(), [&](size_t s) {
    Shard& shard = *shards_[s];
    for (PeerId old_owner = 0; old_owner < shard.fragments.size();
         ++old_owner) {
      auto& fragment = shard.fragments[old_owner];
      size_t pos = 0;
      while (pos < fragment.size()) {
        const uint64_t key_hash = fragment.hash_at(pos);
        const PeerId new_owner = overlay_->Responsible(key_hash);
        if (new_owner == old_owner) {
          ++pos;
          continue;
        }
        // Key-space handover to the joining (or re-responsible) peer: one
        // direct message carrying the published postings.
        auto& [key, entry] = fragment.entry(pos);
        traffic_->Record(old_owner, new_owner, net::MessageKind::kMaintenance,
                         entry.postings.size(), /*hops=*/1);
        shard.fragments[new_owner]
            .try_emplace_hashed(key_hash, key)
            .first->second = std::move(entry);
        // Swap-remove: the entry moved into `pos` is examined next.
        fragment.erase(fragment.begin() + pos);
        ++migrated[s];
      }
    }
  });
  // The salted replica placement changed with the overlay: the stale
  // copies stay in place and the recorded reconciliation repairs exactly
  // the keys whose holders changed.
  ReconcileReplicas(/*record_traffic=*/true);
  uint64_t total = 0;
  for (uint64_t m : migrated) total += m;
  return total;
}

DistributedGlobalIndex::DepartureBaseline DistributedGlobalIndex::
    BeginDeparture(PeerId departing, uint32_t s_max) {
  DepartureBaseline baseline;
  baseline.departed = departing;
  assert(overlay_->num_peers() >= 2);
  assert(departing < overlay_->num_peers());
  // The surviving holders keep their replica state through the replay
  // (the replay's publishes defer replica pushes), so FinishDeparture can
  // RECONCILE the kept copies against the rebuilt fragments — shipping
  // only what the departure actually changed.
  replica_defer_ = res_.replication > 1;

  // The departed peer's ledger share vanishes with it (in the real
  // network its data simply stops being re-served); surviving
  // contributions — renumbered past the freed id — become the replay's
  // scan-free candidate source.
  const size_t survivors = overlay_->num_peers() - 1;

  // Shard-parallel drain. Each shard moves its published entries straight
  // into its own slice of the baseline (keys never change shard) and
  // buckets its surviving contributions by (survivor, level); everything
  // carries the table's cached hash, so nothing re-hashes a term array.
  struct Part {
    /// buckets[p * s_max + s - 1]: survivor p's size-s contributions.
    std::vector<std::vector<KeyedContribution>> buckets;
    uint64_t removed_contributions = 0;
    uint64_t removed_postings = 0;
  };
  std::vector<Part> parts(shards_.size());
  baseline.published.resize(shards_.size());
  ParallelForEach(pool_, shards_.size(), [&](size_t i) {
    Shard& shard = *shards_[i];
    Part& part = parts[i];
    hdk::KeyMap<PublishedSlot>& published = baseline.published[i];
    size_t published_keys = 0;
    for (const auto& fragment : shard.fragments) {
      published_keys += fragment.size();
    }
    published.reserve(published_keys);
    for (PeerId owner = 0; owner < shard.fragments.size(); ++owner) {
      auto& fragment = shard.fragments[owner];
      for (size_t pos = 0; pos < fragment.size(); ++pos) {
        auto& [key, entry] = fragment.entry(pos);
        published.try_emplace_hashed(fragment.hash_at(pos), key,
                                     PublishedSlot{owner, std::move(entry)});
      }
    }
    shard.fragments.clear();
    // Drop the departed holder's replica slot; ids above it renumber down
    // by one, mirroring the overlay's renumbering. Entries stay attached
    // to their physical peers.
    if (departing < shard.replicas.size()) {
      shard.replicas.erase(shard.replicas.begin() + departing);
    }
    part.buckets.resize(survivors * s_max);
    for (size_t pos = 0; pos < shard.ledger.size(); ++pos) {
      auto& [key, ledger] = shard.ledger.entry(pos);
      assert(key.size() >= 1 && key.size() <= s_max);
      const uint64_t key_hash = shard.ledger.hash_at(pos);
      for (Contribution& c : ledger.contributions) {
        if (c.peer == departing) {
          ++part.removed_contributions;
          part.removed_postings += c.full.size();
          continue;
        }
        const PeerId new_id = c.peer > departing ? c.peer - 1 : c.peer;
        part.buckets[new_id * s_max + key.size() - 1].push_back(
            KeyedContribution{key, key_hash, std::move(c.full)});
      }
    }
    shard.ledger.clear();
    shard.pending.clear();
  });

  // Survivor-parallel assembly: each survivor concatenates its buckets in
  // shard order — a fixed order, so the replay sees the same sequence on
  // every run. Every bucket belongs to exactly one survivor.
  baseline.contributions.resize(survivors);
  ParallelForEach(pool_, survivors, [&](size_t p) {
    auto& per_level = baseline.contributions[p];
    per_level.resize(s_max);
    for (uint32_t level = 0; level < s_max; ++level) {
      size_t total = 0;
      for (const Part& part : parts) {
        total += part.buckets[p * s_max + level].size();
      }
      std::vector<KeyedContribution>& out = per_level[level];
      out.reserve(total);
      for (Part& part : parts) {
        auto& bucket = part.buckets[p * s_max + level];
        std::move(bucket.begin(), bucket.end(), std::back_inserter(out));
      }
    }
  });
  for (const Part& part : parts) {
    baseline.removed_contributions += part.removed_contributions;
    baseline.removed_postings += part.removed_postings;
  }
  return baseline;
}

DistributedGlobalIndex::DepartureOutcome DistributedGlobalIndex::
    FinishDeparture(DepartureBaseline baseline) {
  const PeerId departed = baseline.departed;
  assert(baseline.published.size() == shards_.size());

  std::vector<DepartureOutcome> parts(shards_.size());
  ParallelForEach(pool_, shards_.size(), [&](size_t i) {
    Shard& shard = *shards_[i];
    // The shard's baseline slice dies with this task, so releasing the
    // old published entries runs shard-parallel as well.
    const hdk::KeyMap<PublishedSlot> published =
        std::move(baseline.published[i]);
    DepartureOutcome& part = parts[i];
    // The lowest-id surviving contributor of a replayed key: the peer the
    // new owner re-pulls a changed entry from.
    auto first_contributor = [&shard](uint64_t key_hash,
                                      const hdk::TermKey& key) {
      auto it = shard.ledger.find_hashed(key_hash, key);
      assert(it != shard.ledger.end());
      assert(!it->second.contributions.empty());
      return it->second.contributions.front().peer;
    };
    uint64_t republished = 0;
    for (PeerId owner = 0; owner < shard.fragments.size(); ++owner) {
      const auto& fragment = shard.fragments[owner];
      for (size_t pos = 0; pos < fragment.size(); ++pos) {
        const auto& [key, entry] = fragment.entry(pos);
        const uint64_t key_hash = fragment.hash_at(pos);
        auto old_it = published.find_hashed(key_hash, key);
        if (old_it == published.end()) {
          // A key born from Ff re-admission — its insertion traffic was
          // already recorded by the replay.
          continue;
        }
        ++republished;
        const auto& [old_owner, old_entry] = old_it->second;
        if (!old_entry.is_hdk && entry.is_hdk) ++part.reverse_reclassified;

        const bool was_on_departed = old_owner == departed;
        const PeerId old_owner_now =
            old_owner > departed ? old_owner - 1 : old_owner;
        if (was_on_departed || old_owner_now != owner) {
          // Fragment handover: the new owner receives the published entry —
          // from the old owner when it survives, re-pulled from the
          // lowest-id surviving contributor when the departed peer hosted
          // it (the contributors' data stays available, exactly what the
          // contribution ledger models).
          const PeerId src = was_on_departed
                                 ? first_contributor(key_hash, key)
                                 : old_owner_now;
          traffic_->Record(src, owner, net::MessageKind::kMaintenance,
                           entry.postings.size(), /*hops=*/1);
          part.moved_postings += entry.postings.size();
          ++part.migrated_keys;
        } else if (entry.postings != old_entry.postings ||
                   entry.global_df != old_entry.global_df ||
                   entry.is_hdk != old_entry.is_hdk) {
          // Re-derived in place: the owner re-pulls the changed entry from
          // a surviving contributor (un-truncation restores postings the
          // published fragment no longer carried).
          traffic_->Record(first_contributor(key_hash, key), owner,
                           net::MessageKind::kMaintenance,
                           entry.postings.size(), /*hops=*/1);
          part.moved_postings += entry.postings.size();
          ++part.repaired_keys;
        }
      }
    }
    // Keys nobody re-contributed simply cease to exist: their fragments
    // are dropped by the (old) owners without traffic. A replayed key sits
    // on exactly one fragment, so the old keys not met above are those.
    assert(republished <= published.size());
    part.erased_keys = published.size() - republished;
  });

  DepartureOutcome outcome;
  for (const DepartureOutcome& part : parts) {
    outcome.erased_keys += part.erased_keys;
    outcome.reverse_reclassified += part.reverse_reclassified;
    outcome.migrated_keys += part.migrated_keys;
    outcome.repaired_keys += part.repaired_keys;
    outcome.moved_postings += part.moved_postings;
  }

  if (replica_defer_) {
    replica_defer_ = false;
    outcome.replica_sync = ReconcileReplicas(/*record_traffic=*/true);
  }
  return outcome;
}

const hdk::KeyEntry* DistributedGlobalIndex::FetchFrom(
    PeerId src, const hdk::TermKey& key) const {
  return FetchFromResilient(src, key).entry;
}

DistributedGlobalIndex::FetchResult DistributedGlobalIndex::FetchFromResilient(
    PeerId src, const hdk::TermKey& key, const FetchOptions& options) const {
  FetchResult result;
  // One Hash64 serves routing, the responsible-peer lookup, the shard
  // choice and the fragment probe.
  const RingId ring_key = key.Hash64();
  if (!FaultsActive()) {
    // Perfect transport: the pre-fault fetch, message for message. (The
    // primary always answers, so replication never enters the path. Zero
    // simulated time passes, so the deadline and hedge knobs are inert.)
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
  // ticks are the round trip's simulated completion time; `budget` (when
  // non-null) is charged leg by leg and aborts retries at exhaustion.
  struct Leg {
    bool delivered = false;
    bool deadline_exhausted = false;
    uint64_t ticks = 0;
    const hdk::KeyEntry* entry = nullptr;
  };
  auto round_trip = [&](PeerId holder, DeadlineBudget* budget) {
    Leg leg;
    // The probe routes through the overlay (replica probes are billed
    // the same route: the salted placement is resolved the same way).
    const size_t hops = overlay_->Route(src, ring_key);
    const net::SendOutcome probe =
        channel.SendReliable(src, holder, net::MessageKind::kKeyProbe,
                             /*postings=*/0, hops, ring_key,
                             /*extra_bytes=*/0, budget);
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
        /*extra_bytes=*/0, budget);
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

  const uint32_t hedge_delay = options.hedge_delay_ticks;
  size_t i = 0;
  while (i < holders.size()) {
    if (options.budget != nullptr && options.budget->exhausted()) {
      result.deadline_exhausted = true;
      break;
    }
    const PeerId holder = holders[i];
    if (i > 0) ++result.failovers;

    if (hedge_delay == 0) {
      // Plain sequential failover: the leg charges the budget directly.
      const Leg leg = round_trip(holder, options.budget);
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
    if (primary_leg.delivered && primary_leg.ticks <= hedge_delay) {
      result.latency_ticks += primary_leg.ticks;
      if (options.budget != nullptr) options.budget->Charge(primary_leg.ticks);
      result.entry = primary_leg.entry;
      return result;
    }
    // Hedge target: the next holder in failover order.
    const size_t j = i + 1;
    if (j >= holders.size()) {
      // No replica left to hedge against: the primary leg stands alone.
      result.latency_ticks += primary_leg.ticks;
      if (options.budget != nullptr) options.budget->Charge(primary_leg.ticks);
      if (primary_leg.delivered) {
        result.entry = primary_leg.entry;
        return result;
      }
      break;
    }
    ++result.hedges_fired;
    const Leg hedge_leg = round_trip(holders[j], nullptr);
    // The hedge started hedge_delay ticks after the primary, so its
    // effective completion is shifted; ties go to the primary.
    const uint64_t hedge_effective = hedge_delay + hedge_leg.ticks;
    if (primary_leg.delivered &&
        (!hedge_leg.delivered || primary_leg.ticks <= hedge_effective)) {
      result.latency_ticks += primary_leg.ticks;
      if (options.budget != nullptr) options.budget->Charge(primary_leg.ticks);
      result.entry = primary_leg.entry;
      return result;
    }
    if (hedge_leg.delivered) {
      ++result.hedge_wins;
      result.latency_ticks += hedge_effective;
      if (options.budget != nullptr) options.budget->Charge(hedge_effective);
      result.entry = hedge_leg.entry;
      return result;
    }
    // Both legs failed: the walk waited out the slower failure, and the
    // hedge holder counts as one more failed-over attempt.
    const uint64_t failed_ticks =
        std::max<uint64_t>(primary_leg.ticks, hedge_effective);
    result.latency_ticks += failed_ticks;
    if (options.budget != nullptr) options.budget->Charge(failed_ticks);
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
    shard.replicas.resize(shard.fragments.size());
    for (PeerId owner = 0; owner < shard.fragments.size(); ++owner) {
      const auto& fragment = shard.fragments[owner];
      for (size_t pos = 0; pos < fragment.size(); ++pos) {
        const auto& [key, entry] = fragment.entry(pos);
        const uint64_t key_hash = fragment.hash_at(pos);
        const dht::HolderSet holders = HoldersFor(key_hash);
        for (size_t h = 1; h < holders.size(); ++h) {
          shard.replicas[holders[h]]
              .try_emplace_hashed(key_hash, key)
              .first->second = entry;
        }
      }
    }
  });
}

sync::SyncStats DistributedGlobalIndex::ReconcileReplicas(
    bool record_traffic) {
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

  // One replica slot, seen from either side of a pair. The TermKey rides
  // BY VALUE: applying a plan erases flat-map entries, which invalidates
  // references into the maps.
  struct Rec {
    PeerId primary;
    uint64_t key_hash;
    uint64_t digest;
    uint32_t shard;
    uint64_t postings;
    hdk::TermKey key;
  };

  // Phase 1 (shard-parallel): collect what each holder SHOULD store
  // (desired: fragments x salted placement) and what it DOES store
  // (actual: the replica maps).
  struct Side {
    std::vector<std::vector<Rec>> desired;  // per holder
    std::vector<std::vector<Rec>> actual;
  };
  std::vector<Side> parts(shards_.size());
  ParallelForEach(pool_, shards_.size(), [&](size_t s) {
    Shard& shard = *shards_[s];
    Side& part = parts[s];
    part.desired.resize(num_peers);
    part.actual.resize(num_peers);
    for (PeerId owner = 0; owner < shard.fragments.size(); ++owner) {
      const auto& fragment = shard.fragments[owner];
      for (size_t pos = 0; pos < fragment.size(); ++pos) {
        const auto& [key, entry] = fragment.entry(pos);
        const uint64_t key_hash = fragment.hash_at(pos);
        const dht::HolderSet holders = HoldersFor(key_hash);
        for (size_t i = 1; i < holders.size(); ++i) {
          part.desired[holders[i]].push_back(
              Rec{holders[0], key_hash, EntryDigest(key_hash, entry),
                  static_cast<uint32_t>(s), entry.postings.size(), key});
        }
      }
    }
    const size_t tracked = std::min<size_t>(shard.replicas.size(), num_peers);
    for (PeerId holder = 0; holder < tracked; ++holder) {
      const auto& replica = shard.replicas[holder];
      for (size_t pos = 0; pos < replica.size(); ++pos) {
        const auto& [key, entry] = replica.entry(pos);
        const uint64_t key_hash = replica.hash_at(pos);
        part.actual[holder].push_back(
            Rec{overlay_->Responsible(key_hash), key_hash,
                EntryDigest(key_hash, entry), static_cast<uint32_t>(s),
                entry.postings.size(), key});
      }
    }
  });

  // Serial regroup per holder, then sort (primary, digest): the per-pair
  // digest sets become contiguous runs, identical for every shard/thread
  // count.
  std::vector<std::vector<Rec>> desired(num_peers), actual(num_peers);
  for (Side& part : parts) {
    for (size_t h = 0; h < num_peers; ++h) {
      std::move(part.desired[h].begin(), part.desired[h].end(),
                std::back_inserter(desired[h]));
      std::move(part.actual[h].begin(), part.actual[h].end(),
                std::back_inserter(actual[h]));
    }
  }
  auto by_pair = [](const Rec& a, const Rec& b) {
    return std::tie(a.primary, a.digest, a.key_hash) <
           std::tie(b.primary, b.digest, b.key_hash);
  };

  // Phase 2 (holder-parallel): reconcile each (primary, holder) pair.
  // Worker h mutates only shard.replicas[h] (fragments are read-only),
  // so workers never touch the same map; fault decisions are pure hashes
  // salted by (epoch, pair, leg), so the outcome is thread-independent.
  std::vector<sync::SyncStats> partials(num_peers);
  ParallelForEach(pool_, num_peers, [&](size_t h) {
    std::vector<Rec>& want = desired[h];
    std::vector<Rec>& have = actual[h];
    std::sort(want.begin(), want.end(), by_pair);
    std::sort(have.begin(), have.end(), by_pair);
    sync::SyncStats& part = partials[h];
    net::Channel channel(traffic_, res_);
    const PeerId holder = static_cast<PeerId>(h);

    auto find_by_digest = [](const std::vector<Rec>& recs, size_t begin,
                             size_t end, uint64_t digest) -> const Rec* {
      for (size_t i = begin; i < end; ++i) {
        if (recs[i].digest == digest) return &recs[i];
      }
      return nullptr;
    };
    auto erase_actual = [&](const Rec& rec) {
      auto& replica = shards_[rec.shard]->replicas[holder];
      auto it = replica.find_hashed(rec.key_hash, rec.key);
      if (it != replica.end()) replica.erase(it);
    };
    auto ship_desired = [&](const Rec& rec) {
      const auto& fragment = shards_[rec.shard]->fragments[rec.primary];
      auto src = fragment.find_hashed(rec.key_hash, rec.key);
      assert(src != fragment.end());
      shards_[rec.shard]
          ->replicas[holder]
          .try_emplace_hashed(rec.key_hash, rec.key)
          .first->second = src->second;
    };

    size_t wi = 0, ai = 0;
    while (wi < want.size() || ai < have.size()) {
      // Next pair = smallest primary present on either side.
      PeerId primary;
      if (wi < want.size() && ai < have.size()) {
        primary = std::min(want[wi].primary, have[ai].primary);
      } else if (wi < want.size()) {
        primary = want[wi].primary;
      } else {
        primary = have[ai].primary;
      }
      const size_t wbegin = wi, abegin = ai;
      while (wi < want.size() && want[wi].primary == primary) ++wi;
      while (ai < have.size() && have[ai].primary == primary) ++ai;

      ++part.pairs_checked;
      if (res_.injector != nullptr && res_.injector->active() &&
          (res_.injector->PeerDead(primary) ||
           res_.injector->PeerDead(holder))) {
        ++part.pairs_unreachable;
        continue;
      }

      std::vector<uint64_t> want_digests, have_digests;
      want_digests.reserve(wi - wbegin);
      have_digests.reserve(ai - abegin);
      uint64_t want_postings = 0;
      for (size_t i = wbegin; i < wi; ++i) {
        want_digests.push_back(want[i].digest);
        want_postings += want[i].postings;
      }
      for (size_t i = abegin; i < ai; ++i) {
        have_digests.push_back(have[i].digest);
      }
      const bool diverged = want_digests != have_digests;  // both sorted

      const uint64_t pair_salt = Mix64(HashCombine(
          HashCombine(0x53594e43ULL, sync_epoch_),
          (static_cast<uint64_t>(primary) << 32) | holder));
      // One leg of the exchange: reliable (retried), atomically gating
      // the pair — if it stays undelivered the pair is skipped whole.
      auto leg = [&](PeerId src, PeerId dst, net::MessageKind kind,
                     uint64_t postings, uint64_t leg_idx,
                     uint64_t extra_bytes) {
        if (!record_traffic) return true;
        const net::SendOutcome sent =
            channel.SendReliable(src, dst, kind, postings, /*hops=*/1,
                                 pair_salt + leg_idx, extra_bytes);
        part.messages += 1 + sent.retries;
        return sent.delivered;
      };
      auto full_sync = [&] {
        if (!leg(primary, holder, net::MessageKind::kSyncFull, want_postings,
                 /*leg_idx=*/9, /*extra_bytes=*/8 * want_digests.size())) {
          ++part.pairs_unreachable;
          return;
        }
        if (diverged) ++part.pairs_diverged;
        ++part.full_syncs;
        part.full_keys += want_digests.size();
        part.full_postings += want_postings;
        for (size_t i = abegin; i < ai; ++i) erase_actual(have[i]);
        for (size_t i = wbegin; i < wi; ++i) ship_desired(want[i]);
      };

      // The exchange is computed locally by the planner; the legs below
      // bill exactly what would travel, and any lost leg aborts the pair
      // with nothing applied.
      const sync::PairPlan plan =
          sync::PlanPairSync(want_digests, have_digests, cfg);
      const uint64_t ibf_bytes =
          static_cast<uint64_t>(plan.ibf_cells) * sync::Ibf::kCellBytes;
      const uint64_t strata_bytes = plan.sketch_bytes - ibf_bytes;
      part.estimated_diff += plan.estimated_diff;

      // Leg 1: holder -> primary, the holder's strata estimator.
      if (!leg(holder, primary, net::MessageKind::kSyncStrata, 0,
               /*leg_idx=*/1, strata_bytes)) {
        ++part.pairs_unreachable;
        continue;
      }
      ++part.sketch_messages;
      part.sketch_bytes += strata_bytes;

      // Leg 2: primary -> holder, the difference IBF (skipped when the
      // strata already proved the pair identical).
      if (plan.ibf_cells > 0) {
        if (!leg(primary, holder, net::MessageKind::kSyncIbf, 0,
                 /*leg_idx=*/2, ibf_bytes)) {
          ++part.pairs_unreachable;
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
      uint64_t ship_postings = 0;
      std::vector<const Rec*> ship_recs, drop_recs;
      ship_recs.reserve(plan.ship.size());
      drop_recs.reserve(plan.drop.size());
      bool resolved = true;
      for (uint64_t digest : plan.ship) {
        const Rec* rec = find_by_digest(want, wbegin, wi, digest);
        if (rec == nullptr) { resolved = false; break; }
        ship_recs.push_back(rec);
        ship_postings += rec->postings;
      }
      for (uint64_t digest : plan.drop) {
        const Rec* rec = find_by_digest(have, abegin, ai, digest);
        if (rec == nullptr) { resolved = false; break; }
        drop_recs.push_back(rec);
      }
      if (!resolved) {
        // A decoded digest matching neither side should be impossible
        // past the planner's checksum — degrade to full sync regardless.
        full_sync();
        continue;
      }
      // Leg 3: holder -> primary, the decoded want-list (key digests);
      // leg 4: primary -> holder, the missing postings.
      if (!plan.ship.empty()) {
        if (!leg(holder, primary, net::MessageKind::kSyncDelta, 0,
                 /*leg_idx=*/3, 8 * plan.ship.size()) ||
            !leg(primary, holder, net::MessageKind::kSyncDelta, ship_postings,
                 /*leg_idx=*/4, 0)) {
          ++part.pairs_unreachable;
          continue;
        }
      }
      // Drops first: a stale-content key appears in both lists (old
      // digest dropped, fresh digest shipped).
      for (const Rec* rec : drop_recs) erase_actual(*rec);
      for (const Rec* rec : ship_recs) ship_desired(*rec);
      part.delta_keys += plan.ship.size();
      part.delta_postings += ship_postings;
      part.dropped_keys += plan.drop.size();
    }
  });

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
    for (PeerId owner = 0; owner < shard->fragments.size(); ++owner) {
      const auto& fragment = shard->fragments[owner];
      for (size_t pos = 0; pos < fragment.size(); ++pos) {
        const uint64_t key_hash = fragment.hash_at(pos);
        const uint64_t digest =
            EntryDigest(key_hash, fragment.entry(pos).second);
        const dht::HolderSet holders = HoldersFor(key_hash);
        for (size_t i = 1; i < holders.size(); ++i) {
          want.emplace_back(holders[i], key_hash, digest);
        }
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
  if (owner >= shard.fragments.size()) return nullptr;
  const auto& fragment = shard.fragments[owner];
  auto it = fragment.find_hashed(key_hash, key);
  return it == fragment.end() ? nullptr : &it->second;
}

uint64_t DistributedGlobalIndex::StoredPostingsAt(PeerId peer) const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    if (peer >= shard->fragments.size()) continue;
    for (const auto& [key, entry] : shard->fragments[peer]) {
      total += entry.postings.size();
    }
  }
  return total;
}

uint64_t DistributedGlobalIndex::TotalStoredPostings() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    for (const auto& fragment : shard->fragments) {
      for (const auto& [key, entry] : fragment) {
        total += entry.postings.size();
      }
    }
  }
  return total;
}

uint64_t DistributedGlobalIndex::KeysAt(PeerId peer) const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    if (peer < shard->fragments.size()) {
      total += shard->fragments[peer].size();
    }
  }
  return total;
}

uint64_t DistributedGlobalIndex::TotalKeys() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    for (const auto& fragment : shard->fragments) total += fragment.size();
  }
  return total;
}

void DistributedGlobalIndex::CountKeys(uint32_t level, uint64_t* hdks,
                                       uint64_t* ndks) const {
  uint64_t h = 0, n = 0;
  for (const auto& shard : shards_) {
    for (const auto& fragment : shard->fragments) {
      for (const auto& [key, entry] : fragment) {
        if (level != 0 && key.size() != level) continue;
        if (entry.is_hdk) {
          ++h;
        } else {
          ++n;
        }
      }
    }
  }
  if (hdks != nullptr) *hdks = h;
  if (ndks != nullptr) *ndks = n;
}

hdk::HdkIndexContents DistributedGlobalIndex::ExportContents() const {
  hdk::HdkIndexContents out;
  for (const auto& shard : shards_) {
    for (const auto& fragment : shard->fragments) {
      for (const auto& [key, entry] : fragment) {
        out.Put(key, entry);
      }
    }
  }
  return out;
}

bool DistributedGlobalIndex::HasPendingContributions() const {
  for (const auto& shard : shards_) {
    if (!shard->pending.empty() || !shard->redelivery.empty()) return true;
  }
  return false;
}

const hdk::KeyMap<DistributedGlobalIndex::LedgerEntry>&
DistributedGlobalIndex::ShardLedger(size_t shard) const {
  return shards_[shard]->ledger;
}

const hdk::KeyMap<hdk::KeyEntry>& DistributedGlobalIndex::ShardFragment(
    size_t shard, PeerId owner) const {
  return shards_[shard]->fragments[owner];
}

void DistributedGlobalIndex::AdoptShardState(
    size_t shard, hdk::KeyMap<LedgerEntry> ledger,
    std::vector<hdk::KeyMap<hdk::KeyEntry>> fragments) {
  Shard& s = *shards_[shard];
  assert(s.ledger.empty() && s.pending.empty());
  assert(fragments.size() <= s.fragments.size());
  s.ledger = std::move(ledger);
  for (size_t owner = 0; owner < fragments.size(); ++owner) {
    s.fragments[owner] = std::move(fragments[owner]);
  }
}

void DistributedGlobalIndex::AdoptLedgerEntry(const hdk::TermKey& key,
                                              uint64_t key_hash,
                                              LedgerEntry entry) {
  Shard& s = *shards_[ShardOf(key_hash)];
  s.ledger.try_emplace_hashed(key_hash, key).first->second = std::move(entry);
}

void DistributedGlobalIndex::AdoptFragmentEntry(PeerId owner,
                                                const hdk::TermKey& key,
                                                uint64_t key_hash,
                                                hdk::KeyEntry entry) {
  Shard& s = *shards_[ShardOf(key_hash)];
  s.fragments[owner].try_emplace_hashed(key_hash, key).first->second =
      std::move(entry);
}

}  // namespace hdk::p2p
