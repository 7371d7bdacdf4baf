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

/// Folds one contribution into the ledger entry's merge cache, with the
/// sender-side truncation re-applied exactly as InsertPostings
/// transmitted it.
void FoldIntoCache(DistributedGlobalIndex::LedgerEntry& ledger,
                   const index::PostingList& full, const HdkParams& params,
                   double avg_doc_length) {
  ledger.global_df += full.size();
  if (full.size() <= params.df_max) {
    ledger.merged_locals.Merge(full);
    return;
  }
  index::PostingList truncated = full;
  truncated.TruncateTopBy(params.EffectiveNdkTruncation(),
                          [avg_doc_length](const index::Posting& p) {
                            return hdk::TruncationScore(p, avg_doc_length);
                          });
  ledger.merged_locals.MergeFrom(std::move(truncated));
}

/// Key-space handover within one shard: moves every fragment entry whose
/// responsible peer changed to its new owner's slot, calling
/// `moved(from, to, key, key_hash, entry)` before each move.
template <typename Moved>
void HandOver(const dht::Overlay& overlay,
              std::vector<hdk::KeyMap<hdk::KeyEntry>>& fragments,
              Moved&& moved) {
  for (PeerId from = 0; from < fragments.size(); ++from) {
    auto& fragment = fragments[from];
    size_t pos = 0;
    while (pos < fragment.size()) {
      const uint64_t key_hash = fragment.hash_at(pos);
      const PeerId to = overlay.Responsible(key_hash);
      if (to == from) {
        ++pos;
        continue;
      }
      auto& [key, entry] = fragment.entry(pos);
      moved(from, to, key, key_hash, entry);
      fragments[to].try_emplace_hashed(key_hash, key).first->second =
          std::move(entry);
      // Swap-remove: the entry moved into `pos` is examined next.
      fragment.erase(fragment.begin() + pos);
    }
  }
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
                                                const HdkParams& params) {
  // Sender-side truncation: a locally non-discriminative key is certainly
  // globally non-discriminative (paper Section 3: local NDK => global NDK),
  // so the peer only transmits its local top-DFmax postings for it.
  uint64_t payload = full_local.size();
  if (full_local.size() > params.df_max) {
    payload = std::min<uint64_t>(payload, params.EffectiveNdkTruncation());
  }

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
        // The responsible peer died unannounced: the contribution never
        // reaches the ledger and is lost for good.
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

  Shard& shard = *shards_[ShardOf(key_hash)];
  {
    std::lock_guard<std::mutex> lock(shard.insert_mu);
    shard.pending.try_emplace_hashed(key_hash, key)
        .first->second.push_back(Contribution{src, std::move(full_local)});
  }
  return payload;
}

bool DistributedGlobalIndex::Publish(Shard& shard, const hdk::TermKey& key,
                                     uint64_t key_hash, LedgerEntry& ledger,
                                     const HdkParams& params,
                                     double avg_doc_length,
                                     bool record_traffic, bool* changed) {
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
  auto [it, inserted] = fragment.try_emplace_hashed(key_hash, key);
  hdk::KeyEntry& stored = it->second;
  if (changed != nullptr) {
    *changed = inserted || stored.global_df != entry.global_df ||
               stored.is_hdk != entry.is_hdk ||
               stored.postings != entry.postings;
  }
  stored = std::move(entry);
  PublishReplicas(shard, key, key_hash, stored, record_traffic);
  return is_ndk;
}

bool DistributedGlobalIndex::Rederive(
    Shard& shard, size_t pos, const HdkParams& params, double avg_doc_length,
    hdk::KeyMap<DepartureBaseline::Change>* changes) {
  auto& [key, ledger] = shard.ledger.entry(pos);
  const uint64_t key_hash = shard.ledger.hash_at(pos);
  const bool was_ndk = ledger.published_ndk;
  ledger.global_df = 0;
  ledger.merged_locals = index::PostingList();
  for (const Contribution& c : ledger.contributions) {
    FoldIntoCache(ledger, c.full, params, avg_doc_length);
  }
  bool changed = false;
  const bool is_ndk =
      Publish(shard, key, key_hash, ledger, params, avg_doc_length,
              /*record_traffic=*/false, changes != nullptr ? &changed : nullptr);
  if (changed) {
    DepartureBaseline::Change& change =
        changes->try_emplace_hashed(key_hash, key).first->second;
    change.changed = true;
    change.was_ndk = was_ndk;
  }
  return is_ndk;
}

void DistributedGlobalIndex::PublishReplicas(Shard& shard,
                                             const hdk::TermKey& key,
                                             uint64_t key_hash,
                                             const hdk::KeyEntry& entry,
                                             bool record_traffic) {
  if (res_.replication <= 1) return;
  if (replica_defer_) return;  // departure repair: reconciled afterwards
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
      FoldIntoCache(ledger, c.full, params, avg_doc_length);
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
        // its expansion (it leaves the network when it is evicted).
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

uint64_t DistributedGlobalIndex::EraseKeysContaining(const TermIdSet& terms) {
  std::vector<uint64_t> erased(shards_.size(), 0);
  ParallelForEach(pool_, shards_.size(), [&](size_t i) {
    Shard& shard = *shards_[i];
    size_t pos = 0;
    while (pos < shard.ledger.size()) {
      const hdk::TermKey& key = shard.ledger.entry(pos).first;
      if (!key.ContainsAny(terms)) {
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
      if (shard.ledger.entry(pos).second.truncation_sensitive) {
        Rederive(shard, pos, params, avg_doc_length, nullptr);
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
    HandOver(*overlay_, shards_[s]->fragments,
             [&](PeerId from, PeerId to, const hdk::TermKey&, uint64_t,
                 const hdk::KeyEntry& entry) {
               // Handover to the joining (or re-responsible) peer: one
               // direct message carrying the published postings.
               traffic_->Record(from, to, net::MessageKind::kMaintenance,
                                entry.postings.size(), /*hops=*/1);
               ++migrated[s];
             });
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
    BeginDeparture(PeerId departing, DepartureStats* stats) {
  DepartureBaseline baseline;
  baseline.shards.resize(shards_.size());
  // The surviving holders keep their replica state through the repair
  // (its publishes defer replica pushes), so the reconciliation after
  // FinishDeparture ships only what the departure actually changed.
  replica_defer_ = res_.replication > 1;

  std::vector<uint64_t> removed_contributions(shards_.size(), 0);
  std::vector<uint64_t> removed_postings(shards_.size(), 0);
  ParallelForEach(pool_, shards_.size(), [&](size_t i) {
    Shard& shard = *shards_[i];
    DepartureBaseline::ShardRepair& repair = baseline.shards[i];

    // The departed peer's ledger share vanishes with it (in the real
    // network its data simply stops being re-served); the survivors
    // renumber past the freed id, mirroring the overlay.
    for (size_t pos = 0; pos < shard.ledger.size(); ++pos) {
      auto& [key, ledger] = shard.ledger.entry(pos);
      std::vector<Contribution>& contributions = ledger.contributions;
      const size_t before = contributions.size();
      std::erase_if(contributions, [&](Contribution& c) {
        if (c.peer == departing) {
          ++removed_contributions[i];
          removed_postings[i] += c.full.size();
          return true;
        }
        if (c.peer > departing) --c.peer;
        return false;
      });
      if (contributions.size() == before) continue;
      if (repair.dirty.size() < key.size()) repair.dirty.resize(key.size());
      repair.dirty[key.size() - 1].push_back(static_cast<uint32_t>(pos));
    }

    // The departed slot goes; ids above it renumber down by one. Replica
    // entries stay attached to their physical holders. The departed
    // fragment rotates past the survivors' slots, so the owner scan hands
    // all of it over, and every handover is billed by FinishDeparture
    // with the repaired entry.
    assert(shard.fragments.size() == overlay_->num_peers() + 1);
    const size_t survivors = shard.fragments.size() - 1;
    std::rotate(shard.fragments.begin() + departing,
                shard.fragments.begin() + departing + 1,
                shard.fragments.end());
    if (departing < shard.replicas.size()) {
      shard.replicas.erase(shard.replicas.begin() + departing);
    }
    HandOver(*overlay_, shard.fragments,
             [&](PeerId from, PeerId, const hdk::TermKey& key,
                 uint64_t key_hash, const hdk::KeyEntry&) {
               DepartureBaseline::Change& change =
                   repair.changes.try_emplace_hashed(key_hash, key)
                       .first->second;
               change.migrated = true;
               change.from = from < survivors ? from : kInvalidPeer;
             });
    shard.fragments.pop_back();
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
    const std::function<bool(const hdk::TermKey&)>& suspect,
    const std::function<bool(PeerId, const hdk::TermKey&)>& keeps) {
  std::vector<LevelRepair> parts(shards_.size());
  ParallelForEach(pool_, shards_.size(), [&](size_t i) {
    Shard& shard = *shards_[i];
    DepartureBaseline::ShardRepair& repair = baseline.shards[i];
    LevelRepair& part = parts[i];

    auto repair_key = [&](size_t pos) {
      auto& [key, ledger] = shard.ledger.entry(pos);
      const uint64_t key_hash = shard.ledger.hash_at(pos);
      const bool was_ndk = ledger.published_ndk;
      // Retraction: a survivor keeps only the keys it still generates.
      if (suspect && suspect(key)) {
        std::erase_if(ledger.contributions, [&](const Contribution& c) {
          if (keeps(c.peer, key)) return false;
          part.retracted.emplace_back(c.peer, key);
          if (facts && was_ndk) part.lost.emplace_back(c.peer, key);
          return true;
        });
      }
      if (ledger.contributions.empty()) {
        // Nobody contributes any more: the key ceases to exist, and its
        // owner drops the fragment entry without traffic.
        auto& fragment = shard.fragments[overlay_->Responsible(key_hash)];
        auto it = fragment.find_hashed(key_hash, key);
        if (it != fragment.end()) fragment.erase(it);
        ++repair.erased_keys;
        return;
      }
      // Reverse reclassification: the key is discriminative again, so
      // every surviving contributor loses it as expansion material.
      if (!Rederive(shard, pos, params, avg_doc_length, &repair.changes) &&
          facts && was_ndk) {
        for (const Contribution& c : ledger.contributions) {
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
    for (size_t pos = 0; pos < shard.ledger.size(); ++pos) {
      const auto& [key, ledger] = shard.ledger.entry(pos);
      if (key.size() != level || !suspect(key)) continue;
      if (std::any_of(ledger.contributions.begin(),
                      ledger.contributions.end(),
                      [&](const Contribution& c) {
                        return !keeps(c.peer, key);
                      })) {
        repair_key(pos);
      }
    }
  });

  LevelRepair out;
  for (LevelRepair& part : parts) {
    std::move(part.retracted.begin(), part.retracted.end(),
              std::back_inserter(out.retracted));
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

    // Emptied entries leave the ledger (swap-remove: the entry moved
    // into `pos` is examined next).
    for (size_t pos = 0; pos < shard.ledger.size();) {
      if (shard.ledger.entry(pos).second.contributions.empty()) {
        shard.ledger.erase(shard.ledger.begin() + pos);
      } else {
        ++pos;
      }
    }
    // The average document length shifted: re-derive every entry whose
    // truncation depends on it, as Retruncate does on growth (a no-op for
    // the entries the level repair already re-derived).
    for (size_t pos = 0; pos < shard.ledger.size(); ++pos) {
      if (shard.ledger.entry(pos).second.truncation_sensitive) {
        Rederive(shard, pos, params, avg_doc_length, &repair.changes);
      }
    }

    // Bill every handover and in-place change with the repaired entry.
    for (size_t c = 0; c < repair.changes.size(); ++c) {
      const auto& [key, change] = repair.changes.entry(c);
      const uint64_t key_hash = repair.changes.hash_at(c);
      const PeerId owner = overlay_->Responsible(key_hash);
      const hdk::KeyEntry* entry = PeekPrimary(owner, key_hash, key);
      if (entry == nullptr) continue;  // erased: counted above
      if (change.changed && change.was_ndk && entry->is_hdk) {
        ++part.reverse_reclassified;
      }
      // The new owner receives the entry from the old owner when it
      // survives; otherwise — and for an in-place re-derivation — it
      // re-pulls it from the lowest-id surviving contributor (the
      // contributors' data stays available, exactly what the ledger
      // models).
      PeerId src = change.from;
      if (src == kInvalidPeer) {
        src = shard.ledger.find_hashed(key_hash, key)
                  ->second.contributions.front()
                  .peer;
      }
      ++(change.migrated ? part.migrated_keys : part.repaired_keys);
      traffic_->Record(src, owner, net::MessageKind::kMaintenance,
                       entry->postings.size(), /*hops=*/1);
      part.moved_postings += entry->postings.size();
    }
  });

  for (const DepartureStats& part : parts) {
    stats->erased_keys += part.erased_keys;
    stats->reverse_reclassified += part.reverse_reclassified;
    stats->migrated_keys += part.migrated_keys;
    stats->repaired_keys += part.repaired_keys;
    stats->moved_postings += part.moved_postings;
  }
  replica_defer_ = false;
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
