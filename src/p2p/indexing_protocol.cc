#include "p2p/indexing_protocol.h"

#include <algorithm>

#include "common/stopwatch.h"
#include "hdk/indexer.h"

namespace hdk::p2p {

namespace {

/// The delta scans' document lookup: `peer`'s own full list of a key,
/// read back from the key table.
auto ContributionsOf(const DistributedGlobalIndex& global, const Peer& peer) {
  return [&global, &peer](const hdk::TermKey& key) {
    return global.ContributionOf(peer.id(), peer.first_doc(), peer.last_doc(),
                                 key, key.Hash64());
  };
}

}  // namespace

uint64_t IndexingReport::TotalInsertedPostings() const {
  uint64_t total = 0;
  for (const auto& level : levels) total += level.postings_inserted;
  return total;
}

HdkIndexingProtocol::HdkIndexingProtocol(const HdkParams& params,
                                         const corpus::DocumentStore& store,
                                         const dht::Overlay* overlay,
                                         net::TrafficRecorder* traffic,
                                         ThreadPool* pool,
                                         net::Resilience resilience)
    : params_(params),
      store_(store),
      overlay_(overlay),
      traffic_(traffic),
      pool_(pool),
      resilience_(resilience) {}

TermIdSet HdkIndexingProtocol::RefreshVeryFrequent(
    const corpus::CollectionStats& stats, TermIdSet* dropped) {
  // The very-frequent cutoff uses global collection statistics. The real
  // deployment aggregates these while peers join (cheap term-count
  // gossip); the paper applies it as global preprocessing, and so do we —
  // this traffic is not part of the paper's accounting.
  TermIdSet fresh, now;
  for (TermId t :
       stats.VeryFrequentTerms(params_.very_frequent_threshold)) {
    now.insert(t);
    if (very_frequent_.count(t) == 0) fresh.insert(t);
  }
  for (TermId t : very_frequent_) {
    if (now.count(t) == 0 && dropped != nullptr) dropped->insert(t);
  }
  very_frequent_ = std::move(now);
  report_.excluded_very_frequent_terms = very_frequent_.size();
  return fresh;
}

Result<std::unique_ptr<DistributedGlobalIndex>> HdkIndexingProtocol::Run(
    const std::vector<std::pair<DocId, DocId>>& peer_ranges,
    const corpus::CollectionStats& stats) {
  HDK_RETURN_NOT_OK(params_.Validate());
  if (!peers_.empty()) {
    return Status::FailedPrecondition(
        "protocol already ran; use Grow() to add peers");
  }
  if (peer_ranges.empty()) {
    return Status::InvalidArgument("need at least one peer");
  }
  if (peer_ranges.size() != overlay_->num_peers()) {
    return Status::InvalidArgument(
        "peer_ranges must match the overlay's peer count");
  }
  // The key table derives a whole contribution from its contributor's
  // document range (DistributedGlobalIndex::ContributionOf), so no two
  // peers may share a document.
  HDK_RETURN_NOT_OK(corpus::ValidateDisjointRanges(peer_ranges, store_.size()));
  DocId watermark = 0;
  for (const auto& range : peer_ranges) {
    watermark = std::max(watermark, range.second);
  }
  indexed_docs_ = watermark;

  RefreshVeryFrequent(stats);
  report_.levels.resize(params_.s_max);
  for (uint32_t s = 1; s <= params_.s_max; ++s) {
    report_.levels[s - 1].level = s;
  }
  report_.inserted_postings_per_peer.assign(peer_ranges.size(), 0);

  peers_.reserve(peer_ranges.size());
  for (PeerId p = 0; p < peer_ranges.size(); ++p) {
    peers_.emplace_back(p, peer_ranges[p].first, peer_ranges[p].second,
                        params_);
  }

  auto global = std::make_unique<DistributedGlobalIndex>(
      overlay_, traffic_, pool_, /*num_shards=*/0, resilience_);
  global_ = global.get();

  RunLevels(stats, /*first_new_peer=*/0, nullptr);
  return global;
}

Status HdkIndexingProtocol::Grow(
    const std::vector<std::pair<DocId, DocId>>& new_ranges,
    const corpus::CollectionStats& stats, GrowthStats* growth) {
  if (global_ == nullptr) {
    return Status::FailedPrecondition("Run() must succeed before Grow()");
  }
  if (new_ranges.empty()) {
    return Status::InvalidArgument("need at least one joining peer");
  }
  if (peers_.size() + new_ranges.size() != overlay_->num_peers()) {
    return Status::InvalidArgument(
        "overlay must already contain the joining peers");
  }
  DocId frontier = indexed_docs_;
  for (const auto& [first, last] : new_ranges) {
    if (first != frontier || last < first || last > store_.size()) {
      return Status::OutOfRange(
          "joining ranges must continue contiguously from the indexed "
          "document frontier");
    }
    frontier = last;
  }
  indexed_docs_ = frontier;

  if (growth != nullptr) {
    growth->joined_peers = new_ranges.size();
    growth->delta_documents = frontier - new_ranges.front().first;
  }

  // 1. Key-space responsibility was re-balanced by the grown overlay:
  //    hand the published fragments over and reconcile the replicas.
  Stopwatch handover_watch;
  const uint64_t migrated = global_->OnOverlayGrown();
  phase_timings_.join_handover_seconds += handover_watch.ElapsedSeconds();

  // 2. Terms that crossed Ff leave the key vocabulary: erase their keys
  //    from the global index and from every peer's local knowledge —
  //    a from-scratch build over the grown collection never creates them.
  Stopwatch purge_watch;
  const TermIdSet fresh_vf = RefreshVeryFrequent(stats);
  uint64_t purged = 0;
  if (!fresh_vf.empty()) {
    purged = global_->EraseKeysContaining(fresh_vf);
    ParallelForEach(pool_, peers_.size(),
                    [&](size_t i) { peers_[i].PurgeTerms(fresh_vf); });
  }
  phase_timings_.join_purge_seconds += purge_watch.ElapsedSeconds();
  if (growth != nullptr) {
    growth->migrated_keys = migrated;
    growth->new_very_frequent_terms = fresh_vf.size();
    growth->purged_keys = purged;
  }

  // 3. The average document length shifted with the new documents;
  //    re-derive every truncation-dependent published entry under the
  //    grown collection's statistics.
  Stopwatch retruncate_watch;
  global_->Retruncate(params_, stats.average_document_length());
  phase_timings_.join_retruncate_seconds +=
      retruncate_watch.ElapsedSeconds();

  // 4. The joining peers enter the protocol.
  const size_t first_new_peer = peers_.size();
  for (const auto& [first, last] : new_ranges) {
    peers_.emplace_back(static_cast<PeerId>(peers_.size()), first, last,
                        params_);
  }
  report_.inserted_postings_per_peer.resize(peers_.size(), 0);

  // 5. Level-wise protocol over the delta.
  RunLevels(stats, first_new_peer, growth);
  return Status::OK();
}

std::vector<std::pair<DocId, DocId>> HdkIndexingProtocol::peer_ranges()
    const {
  std::vector<std::pair<DocId, DocId>> ranges;
  ranges.reserve(peers_.size());
  for (const Peer& peer : peers_) {
    ranges.emplace_back(peer.first_doc(), peer.last_doc());
  }
  return ranges;
}

Status HdkIndexingProtocol::RestoreFromSnapshot(
    std::vector<Peer> peers, TermIdSet very_frequent, IndexingReport report,
    PhaseTimings timings, DocId indexed_docs,
    DistributedGlobalIndex* global) {
  if (!peers_.empty() || global_ != nullptr) {
    return Status::FailedPrecondition(
        "protocol already ran; snapshots restore onto a fresh protocol");
  }
  peers_ = std::move(peers);
  very_frequent_ = std::move(very_frequent);
  report_ = std::move(report);
  phase_timings_ = timings;
  indexed_docs_ = indexed_docs;
  global_ = global;
  return Status::OK();
}

Status HdkIndexingProtocol::Depart(
    PeerId departing, const corpus::CollectionStats& stats,
    const std::function<Status()>& shrink_overlay,
    DepartureStats* departure) {
  if (global_ == nullptr) {
    return Status::FailedPrecondition("Run() must succeed before Depart()");
  }
  if (departing >= peers_.size()) {
    return Status::InvalidArgument("Depart: unknown peer");
  }
  if (peers_.size() == 1) {
    return Status::FailedPrecondition(
        "Depart: cannot remove the last peer");
  }

  HDK_RETURN_NOT_OK(shrink_overlay());

  // 1. The departed peer leaves the key table and the peer set;
  //    everything else stays where it is. Survivors above it renumber
  //    down by one, as the overlay did.
  Stopwatch repair_watch;
  DepartureStats stats_out;
  DistributedGlobalIndex::DepartureBaseline baseline =
      global_->BeginDeparture(departing, peers_[departing].first_doc(),
                              peers_[departing].last_doc(), &stats_out);
  peers_.erase(peers_.begin() + departing);
  for (size_t i = departing; i < peers_.size(); ++i) {
    peers_[i].set_id(static_cast<PeerId>(i));
  }
  const std::vector<std::pair<DocId, DocId>> ranges = peer_ranges();
  report_.inserted_postings_per_peer.erase(
      report_.inserted_postings_per_peer.begin() + departing);

  // 2. The very-frequent set is recomputed from the surviving collection —
  //    collection frequencies only shrank, so terms can only drop OUT of
  //    it and re-enter the key vocabulary (the mirror image of the growth
  //    path's purge).
  TermIdSet readmitted;
  RefreshVeryFrequent(stats, &readmitted);
  stats_out.readmitted_terms = readmitted.size();

  // 3. Level-wise in-place repair. A key is dirty at level s when the
  //    departed peer contributed to it, or when it holds a survivor's
  //    contribution that survivor can no longer generate — the key
  //    contains a fact the survivor lost at a level below s. Dirty keys
  //    are re-derived in place; the facts their survivors lose leave the
  //    oracles with one reverse notice each. Re-admitted terms are
  //    scanned back in, and only those keys travel as insertions.
  const double avgdl = stats.average_document_length();
  std::vector<bool> rescan_counted(peers_.size(), false);
  // Facts some survivor lost so far: a key containing none of them keeps
  // every contribution, so only keys containing one are checked.
  TermIdSet lost_terms;
  hdk::KeySet lost_keys;
  auto suspect = [&](const hdk::TermKey& key) {
    for (TermId t : key.terms()) {
      if (lost_terms.count(t) > 0) return true;
    }
    if (key.size() < 3 || lost_keys.empty()) return false;
    for (uint32_t i = 0; i < key.size(); ++i) {
      if (lost_keys.count(key.DropTerm(i)) > 0) return true;
    }
    return false;
  };
  auto keeps = [this](PeerId peer, const hdk::TermKey& key) {
    return hdk::GenerableUnder(key, peers_[peer].oracle());
  };
  // The overlay already shrank; concurrent InsertPostings must find the
  // fragment/traffic capacity in place (see RunLevels).
  global_->EnsureCapacity();
  for (uint32_t s = 1; s <= params_.s_max; ++s) {
    ProtocolLevelStats& level_stats = report_.levels[s - 1];
    const bool facts = s < params_.s_max;

    DistributedGlobalIndex::LevelRepair repair = global_->RepairLevel(
        baseline, s, params_, avgdl, facts, ranges,
        lost_terms.empty() && lost_keys.empty()
            ? std::function<bool(const hdk::TermKey&)>()
            : suspect,
        keeps);
    // The survivors apply their share in parallel: lost facts leave the
    // oracle with one reverse notice from the key's owner each.
    std::vector<std::vector<const hdk::TermKey*>> lost(peers_.size());
    for (const auto& [peer, key] : repair.lost) lost[peer].push_back(&key);
    ParallelForEach(pool_, peers_.size(), [&](size_t i) {
      Peer& peer = peers_[i];
      std::erase_if(lost[i], [&](const hdk::TermKey* key) {
        if (!peer.ForgetNdk(*key)) return true;
        traffic_->Record(global_->ResponsiblePeer(*key), peer.id(),
                         net::MessageKind::kReclassifyNotification,
                         /*postings=*/0, /*hops=*/1);
        return false;
      });
    });
    stats_out.retracted_keys += repair.retracted;
    for (const auto& forgotten : lost) {
      stats_out.forget_notifications += forgotten.size();
      for (const hdk::TermKey* key : forgotten) {
        if (key->size() == 1) {
          lost_terms.insert(key->term(0));
        } else {
          lost_keys.insert(*key);
        }
      }
    }

    // Re-admission, the shape of RunLevels' scan wave: level 1 builds
    // every survivor's lists of the re-admitted terms, higher levels
    // re-scan the delta of fresh knowledge. Each task reads its peer and
    // owns its counters and contribution runs; counters reduce in
    // ascending peer order.
    struct ScanTask {
      hdk::CandidateBuildStats generation;
      bool rescanned = false;
      uint64_t keys_inserted = 0;
      uint64_t postings_inserted = 0;
    };
    std::vector<ScanTask> tasks(peers_.size());
    ParallelForEach(pool_, peers_.size(), [&](size_t i) {
      const Peer& peer = peers_[i];
      ScanTask& task = tasks[i];
      if (s == 1 ? readmitted.empty() : !peer.HasFreshKnowledge()) return;
      task.rescanned = true;
      hdk::KeyMap<index::PostingList> scanned =
          s == 1 ? peer.BuildLevel1(store_, very_frequent_, &task.generation,
                                    &readmitted)
                 : peer.BuildLevelDelta(s, store_,
                                        ContributionsOf(*global_, peer),
                                        &task.generation);
      DistributedGlobalIndex::ContributionRuns runs;
      for (size_t ci = 0; ci < scanned.size(); ++ci) {
        auto& [key, pl] = scanned.entry(ci);
        ++task.keys_inserted;
        task.postings_inserted +=
            global_->InsertPostings(runs, peer.id(), key, scanned.hash_at(ci),
                                    std::move(pl), params_);
      }
      global_->Submit(std::move(runs));
    });
    for (size_t i = 0; i < tasks.size(); ++i) {
      const ScanTask& task = tasks[i];
      level_stats.generation += task.generation;
      if (task.rescanned && !rescan_counted[i]) {
        rescan_counted[i] = true;
        ++stats_out.rescanned_peers;
      }
      level_stats.keys_inserted += task.keys_inserted;
      level_stats.postings_inserted += task.postings_inserted;
      report_.inserted_postings_per_peer[i] += task.postings_inserted;
      stats_out.repair_insertions += task.keys_inserted;
      stats_out.repair_postings += task.postings_inserted;
    }

    // Only re-admission keys are pending. Their contributors learn the
    // new facts; a fact a contributor already holds does not travel.
    LevelOutcome outcome =
        global_->EndLevel(params_, avgdl, /*notify_contributors=*/facts,
                          /*record_traffic=*/false);
    for (const auto& [key, contributors] : outcome.notifications) {
      PeerId owner = kInvalidPeer;  // routed only when a fact travels
      for (PeerId contributor : contributors) {
        if (!peers_[contributor].OnNdkNotification(key)) continue;
        if (owner == kInvalidPeer) owner = global_->ResponsiblePeer(key);
        traffic_->Record(owner, contributor,
                         net::MessageKind::kNdkNotification,
                         /*postings=*/0, /*hops=*/1);
        ++level_stats.notifications;
      }
    }
  }
  for (Peer& peer : peers_) peer.ClearFreshKnowledge();
  phase_timings_.departure_repair_seconds += repair_watch.ElapsedSeconds();

  // 4. Re-derive what the average document length shifted and bill every
  //    fragment handover and in-place change.
  Stopwatch diff_watch;
  global_->FinishDeparture(std::move(baseline), params_, avgdl, &stats_out);
  phase_timings_.departure_diff_seconds += diff_watch.ElapsedSeconds();

  // 5. The replica copies were left as they were: reconcile them against
  //    the repaired fragments (a no-op without replication).
  Stopwatch reconcile_watch;
  stats_out.replica_sync = global_->ReconcileReplicas();
  phase_timings_.departure_reconcile_seconds +=
      reconcile_watch.ElapsedSeconds();

  CountPublishedKeys();
  if (departure != nullptr) *departure = stats_out;
  return Status::OK();
}

void HdkIndexingProtocol::RunLevels(const corpus::CollectionStats& stats,
                                    size_t first_new_peer,
                                    GrowthStats* growth) {
  const double avgdl = stats.average_document_length();
  std::vector<bool> rescan_counted(peers_.size(), false);
  // Per-peer candidate count of the previous level: the reserve hint that
  // pre-sizes the next level's accumulator tables (a level's candidate
  // set shrinks as s grows, so the previous count upper-bounds the next).
  std::vector<size_t> prev_candidates(peers_.size(), 0);
  // Concurrent InsertPostings must never resize the fragment/traffic
  // capacity; the overlay is stable for the whole pass, so one serial
  // call up front covers every level.
  global_->EnsureCapacity();

  for (uint32_t s = 1; s <= params_.s_max; ++s) {
    ProtocolLevelStats& level_stats = report_.levels[s - 1];

    // Phase 1 (serial): which peers participate at this level. Within a
    // level, every peer's candidate set depends only on the state at
    // level entry (knowledge updates arrive after EndLevel), so the
    // participants are independent of each other. The joining peers'
    // full scans go first, so the wave's longest tasks start first and
    // the old peers' shorter delta scans fill in around them.
    struct ScanTask {
      Peer* peer = nullptr;
      bool is_new = false;
      size_t reserve_hint = 0;
      size_t candidates = 0;
      hdk::CandidateBuildStats generation;
      uint64_t keys_inserted = 0;
      uint64_t postings_inserted = 0;
    };
    std::vector<ScanTask> tasks;
    tasks.reserve(peers_.size());
    for (Peer& peer : peers_) {
      const bool is_new = peer.id() >= first_new_peer;
      if (!is_new) {
        // An existing peer's level-1 candidates never grow (the very-
        // frequent set only shrinks the vocabulary), and its higher
        // levels only produce NEW candidates when it gained knowledge —
        // in which case the delta scan generates exactly those.
        if (s == 1 || !peer.HasFreshKnowledge()) continue;
        if (growth != nullptr && !rescan_counted[peer.id()]) {
          rescan_counted[peer.id()] = true;
          ++growth->rescanned_peers;
        }
      }
      tasks.push_back(
          ScanTask{&peer, is_new, prev_candidates[peer.id()], 0, {}, 0, 0});
    }
    std::stable_partition(tasks.begin(), tasks.end(),
                          [](const ScanTask& task) { return task.is_new; });

    // Phase 2 (parallel): each task scans its peer's candidates AND
    // inserts them — InsertPostings bills the message and appends the
    // contribution to the task's own per-shard runs, which reach the
    // index in one Submit when the task ends, so the wave shares no lock
    // per key; each task frees its candidate map before the next one
    // starts (peak memory ~num_threads maps). The key table is only read
    // (a peer's own contributions; nothing writes it before EndLevel),
    // and every mutation is either task-local (per-task counters, runs),
    // per-key commutative (EndLevel sorts each key's contributors and
    // folds order-independent merges) or aggregate-only (sharded traffic
    // counters) — so any task order and interleaving yields the same
    // observable state.
    Stopwatch scan_watch;
    ParallelForEach(pool_, tasks.size(), [&](size_t i) {
      ScanTask& task = tasks[i];
      const Peer& peer = *task.peer;
      hdk::KeyMap<index::PostingList> candidates =
          s == 1 ? peer.BuildLevel1(store_, very_frequent_, &task.generation)
          : task.is_new
              ? peer.BuildLevel(s, store_, &task.generation,
                                task.reserve_hint)
              : peer.BuildLevelDelta(s, store_,
                                     ContributionsOf(*global_, peer),
                                     &task.generation);
      task.candidates = candidates.size();

      // Hash-carrying insert wave: the candidate map caches each key's
      // Hash64, so the already-contributed probe, overlay routing, shard
      // choice and the barrier's table probe all reuse it.
      DistributedGlobalIndex::ContributionRuns runs;
      for (size_t ci = 0; ci < candidates.size(); ++ci) {
        auto& [key, pl] = candidates.entry(ci);
        const uint64_t key_hash = candidates.hash_at(ci);
        if (!task.is_new &&
            !global_->ContributionOf(peer.id(), peer.first_doc(),
                                     peer.last_doc(), key, key_hash)
                 .empty()) {
          continue;
        }
        ++task.keys_inserted;
        task.postings_inserted += global_->InsertPostings(
            runs, peer.id(), key, key_hash, std::move(pl), params_);
      }
      global_->Submit(std::move(runs));
    });
    phase_timings_.scan_seconds += scan_watch.ElapsedSeconds();

    // Phase 3 (serial): reduce the per-task counters (sums and per-peer
    // slots, so the task order does not change them).
    for (const ScanTask& task : tasks) {
      prev_candidates[task.peer->id()] = task.candidates;
      level_stats.generation += task.generation;
      level_stats.keys_inserted += task.keys_inserted;
      level_stats.postings_inserted += task.postings_inserted;
      report_.inserted_postings_per_peer[task.peer->id()] +=
          task.postings_inserted;
      if (growth != nullptr) {
        growth->delta_insertions += task.keys_inserted;
        growth->delta_postings += task.postings_inserted;
      }
    }

    // Notifications are pointless at the last level (size filtering stops
    // expansion), so the protocol disables them there. EndLevel fans out
    // over the index shards and reduces in ascending-key order.
    Stopwatch merge_watch;
    LevelOutcome outcome = global_->EndLevel(
        params_, avgdl, /*notify_contributors=*/s < params_.s_max);
    phase_timings_.merge_seconds += merge_watch.ElapsedSeconds();
    level_stats.notifications += outcome.notification_messages;
    if (growth != nullptr) growth->reclassified_keys += outcome.reclassified;

    // Deliver the notifications: contributors learn which of their keys
    // are globally non-discriminative and expand them at the next level.
    // An existing peer that learns something NEW accumulates it as fresh
    // knowledge and re-derives its candidate delta at the higher levels.
    if (s < params_.s_max) {
      for (const auto& [key, contributors] : outcome.notifications) {
        for (PeerId contributor : contributors) {
          peers_[contributor].OnNdkNotification(key);
        }
      }
    }
  }

  // The pass consumed every fresh fact: level-k facts arrive at level-k's
  // EndLevel and only matter for levels > k, all of which just ran.
  for (Peer& peer : peers_) peer.ClearFreshKnowledge();

  CountPublishedKeys();
}

void HdkIndexingProtocol::CountPublishedKeys() {
  for (uint32_t s = 1; s <= params_.s_max; ++s) {
    global_->CountKeys(s, &report_.levels[s - 1].hdks,
                       &report_.levels[s - 1].ndks);
  }
}

}  // namespace hdk::p2p
