#include "p2p/indexing_protocol.h"

#include <algorithm>

#include "common/stopwatch.h"
#include "hdk/indexer.h"

namespace hdk::p2p {

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

std::vector<TermId> HdkIndexingProtocol::RefreshVeryFrequent(
    const corpus::CollectionStats& stats) {
  // The very-frequent cutoff uses global collection statistics. The real
  // deployment aggregates these while peers join (cheap term-count
  // gossip); the paper applies it as global preprocessing, and so do we —
  // this traffic is not part of the paper's accounting.
  std::vector<TermId> fresh;
  for (TermId t :
       stats.VeryFrequentTerms(params_.very_frequent_threshold)) {
    if (very_frequent_.insert(t).second) fresh.push_back(t);
  }
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
  DocId watermark = 0;
  for (const auto& [first, last] : peer_ranges) {
    if (first > last || last > store_.size()) {
      return Status::OutOfRange("invalid peer document range");
    }
    watermark = std::max(watermark, last);
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

  // 1. Terms that crossed Ff leave the key vocabulary: erase their keys
  //    from the global index and from every peer's local knowledge —
  //    a from-scratch build over the grown collection never creates them.
  const std::vector<TermId> fresh_vf = RefreshVeryFrequent(stats);
  uint64_t purged = 0;
  for (TermId t : fresh_vf) {
    purged += global_->EraseKeysContaining(t);
    for (Peer& peer : peers_) peer.PurgeTerm(t);
  }
  if (growth != nullptr) {
    growth->new_very_frequent_terms = fresh_vf.size();
    growth->purged_keys = purged;
  }

  // 2. The average document length shifted with the new documents;
  //    re-derive every truncation-dependent published entry under the
  //    grown collection's statistics.
  global_->Retruncate(params_, stats.average_document_length());

  // 3. The joining peers enter the protocol.
  const size_t first_new_peer = peers_.size();
  for (const auto& [first, last] : new_ranges) {
    peers_.emplace_back(static_cast<PeerId>(peers_.size()), first, last,
                        params_);
  }
  report_.inserted_postings_per_peer.resize(peers_.size(), 0);

  // 4. Level-wise protocol over the delta.
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

  DepartureStats stats_out;
  stats_out.departed = departing;

  // 1. Snapshot the published state and the surviving contribution
  //    history under the pre-departure placement, then shrink the overlay.
  DistributedGlobalIndex::DepartureBaseline baseline =
      global_->BeginDeparture(departing, params_.s_max);
  stats_out.removed_contributions = baseline.removed_contributions;
  stats_out.removed_postings = baseline.removed_postings;
  HDK_RETURN_NOT_OK(shrink_overlay());

  // 2. The survivors' pre-departure knowledge (their oracles) moves aside:
  //    the replay rebuilds each peer's knowledge from the surviving
  //    classifications, and the pre/post diff tells which facts genuinely
  //    travel (fresh) or must be forgotten (reverse notices).
  std::vector<Peer> prior = std::move(peers_);
  peers_.clear();
  peers_.reserve(prior.size() - 1);
  for (const Peer& old_peer : prior) {
    if (old_peer.id() == departing) continue;
    peers_.emplace_back(static_cast<PeerId>(peers_.size()),
                        old_peer.first_doc(), old_peer.last_doc(), params_);
  }
  auto prior_of = [&](PeerId new_id) -> const Peer& {
    return prior[new_id < departing ? new_id : new_id + 1];
  };
  auto prior_knows = [&](PeerId new_id, const hdk::TermKey& key) {
    const hdk::SetNdkOracle& oracle = prior_of(new_id).oracle();
    return key.size() == 1 ? oracle.IsExpandableTerm(key.term(0))
                           : oracle.IsNdk(key);
  };
  report_.inserted_postings_per_peer.erase(
      report_.inserted_postings_per_peer.begin() + departing);

  // 3. The very-frequent set is recomputed from the surviving collection —
  //    collection frequencies only shrank, so terms can only drop OUT of
  //    it and re-enter the key vocabulary (the mirror image of the growth
  //    path's purge).
  TermIdSet readmitted;
  {
    TermIdSet vf_now;
    for (TermId t :
         stats.VeryFrequentTerms(params_.very_frequent_threshold)) {
      vf_now.insert(t);
    }
    for (TermId t : very_frequent_) {
      if (vf_now.count(t) == 0) readmitted.insert(t);
    }
    very_frequent_ = std::move(vf_now);
    report_.excluded_very_frequent_terms = very_frequent_.size();
    stats_out.readmitted_terms = readmitted.size();
  }

  // 4. Level-wise replay against the surviving ledger. A peer's level-s
  //    candidate set is its surviving level-s contributions filtered by
  //    generability under its REPLAYED knowledge (retraction of keys whose
  //    basis left with the departed data), plus — only when terms were
  //    re-admitted — the targeted delta scan over the freshly generable
  //    candidates. Nothing already hosted in the network travels again;
  //    only re-admission keys record insert traffic.
  const double avgdl = stats.average_document_length();
  std::vector<bool> rescan_counted(peers_.size(), false);
  // The overlay already shrank; concurrent InsertPostings must find the
  // fragment/traffic capacity in place (see RunLevels).
  global_->EnsureCapacity();
  for (uint32_t s = 1; s <= params_.s_max; ++s) {
    ProtocolLevelStats& level_stats = report_.levels[s - 1];

    // Parallel replay, the shape of RunLevels' scan wave: a peer's
    // candidates depend only on its own knowledge at level entry, each
    // task owns its peer and keeps its own counters, and the insertions
    // are per-key commutative. With no pool this is the serial replay in
    // ascending peer order.
    struct ReplayTask {
      hdk::CandidateBuildStats generation;
      bool rescanned = false;
      uint64_t retracted_keys = 0;
      /// Re-admission insertions — the only ones that travel.
      uint64_t keys_inserted = 0;
      uint64_t postings_inserted = 0;
    };
    std::vector<ReplayTask> tasks(peers_.size());
    ParallelForEach(pool_, peers_.size(), [&](size_t i) {
      Peer& peer = peers_[i];
      ReplayTask& task = tasks[i];
      // Level-1 candidates only depend on the vocabulary, which never
      // shrank for the survivors — everything is kept and re-admitted
      // terms are scanned back in. Higher levels re-scan only the delta
      // of fresh knowledge.
      hdk::KeyMap<index::PostingList> scanned;
      if (s == 1 ? !readmitted.empty() : peer.HasFreshKnowledge()) {
        scanned = s == 1 ? peer.BuildLevel1(store_, very_frequent_,
                                            &task.generation)
                         : peer.BuildLevelDelta(s, store_, &task.generation);
        task.rescanned = true;
      }
      std::vector<DistributedGlobalIndex::KeyedContribution> kept =
          std::move(baseline.contributions[i][s - 1]);
      for (auto& c : kept) {
        if (s > 1 && !hdk::GenerableUnder(c.key, peer.oracle())) {
          ++task.retracted_keys;
          continue;
        }
        InsertCandidate(peer, s, c.key, c.key_hash, std::move(c.full), avgdl,
                        /*record_traffic=*/false);
      }
      for (size_t ci = 0; ci < scanned.size(); ++ci) {
        auto& [key, pl] = scanned.entry(ci);
        if (s == 1 && readmitted.count(key.term(0)) == 0) continue;
        ++task.keys_inserted;
        task.postings_inserted +=
            InsertCandidate(peer, s, key, scanned.hash_at(ci), std::move(pl),
                            avgdl, /*record_traffic=*/true);
      }
    });

    // Serial reduce in ascending peer order.
    for (size_t i = 0; i < tasks.size(); ++i) {
      const ReplayTask& task = tasks[i];
      level_stats.generation += task.generation;
      stats_out.retracted_keys += task.retracted_keys;
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

    LevelOutcome outcome =
        global_->EndLevel(params_, avgdl, /*notify_contributors=*/
                          s < params_.s_max, /*record_traffic=*/false);
    if (s < params_.s_max) {
      for (const auto& [key, contributors] : outcome.notifications) {
        PeerId owner = kInvalidPeer;  // routed only when a fact travels
        for (PeerId contributor : contributors) {
          if (prior_knows(contributor, key)) {
            // Old news: the fact survives the churn; adopting it silently
            // keeps the replay free of spurious delta scans and traffic.
            peers_[contributor].AdoptNdk(key);
          } else {
            peers_[contributor].OnNdkNotification(key);
            if (owner == kInvalidPeer) owner = global_->ResponsiblePeer(key);
            traffic_->Record(owner, contributor,
                             net::MessageKind::kNdkNotification,
                             /*postings=*/0, /*hops=*/1);
            ++level_stats.notifications;
          }
        }
      }
    }
  }
  for (Peer& peer : peers_) peer.ClearFreshKnowledge();

  // 5. Reverse notices: every fact a survivor held that the replay did
  //    not reproduce (its key flipped back to discriminative or vanished)
  //    is explicitly forgotten — one message from the key's owner. The
  //    check runs survivor-parallel, and each task releases its peer's
  //    pre-departure state, which nothing reads afterwards.
  std::vector<uint64_t> forgets(peers_.size(), 0);
  ParallelForEach(pool_, peers_.size(), [&](size_t i) {
    const Peer before_peer = std::move(prior[i < departing ? i : i + 1]);
    const hdk::SetNdkOracle& before = before_peer.oracle();
    const hdk::SetNdkOracle& after = peers_[i].oracle();
    auto forget = [&](const hdk::TermKey& key) {
      traffic_->Record(global_->ResponsiblePeer(key), static_cast<PeerId>(i),
                       net::MessageKind::kReclassifyNotification,
                       /*postings=*/0, /*hops=*/1);
      ++forgets[i];
    };
    for (TermId t : before.expandable_terms()) {
      if (!after.IsExpandableTerm(t)) forget(hdk::TermKey{t});
    }
    for (const hdk::TermKey& key : before.ndks()) {
      if (!after.IsNdk(key)) forget(key);
    }
  });
  for (uint64_t f : forgets) stats_out.forget_notifications += f;

  // 6. Reconcile against the pre-departure published state: fragment
  //    handovers, in-place repairs and reverse reclassifications record
  //    their churn traffic here.
  DistributedGlobalIndex::DepartureOutcome outcome =
      global_->FinishDeparture(std::move(baseline));
  stats_out.erased_keys = outcome.erased_keys;
  stats_out.reverse_reclassified = outcome.reverse_reclassified;
  stats_out.migrated_keys = outcome.migrated_keys;
  stats_out.repaired_keys = outcome.repaired_keys;
  stats_out.moved_postings = outcome.moved_postings;
  stats_out.replica_sync = outcome.replica_sync;

  // Keep the published classification counts exact.
  for (uint32_t s = 1; s <= params_.s_max; ++s) {
    global_->CountKeys(s, &report_.levels[s - 1].hdks,
                       &report_.levels[s - 1].ndks);
  }
  if (departure != nullptr) *departure = stats_out;
  return Status::OK();
}

uint64_t HdkIndexingProtocol::InsertCandidate(Peer& peer, uint32_t s,
                                              const hdk::TermKey& key,
                                              uint64_t key_hash,
                                              index::PostingList full,
                                              double avgdl,
                                              bool record_traffic) {
  // Keys below the top level can become expansion material later;
  // remember which local documents carry them (delta-scan targets).
  std::vector<DocId> key_docs;
  if (s < params_.s_max) key_docs = full.Documents();
  const uint64_t payload =
      global_->InsertPostings(peer.id(), key, key_hash, std::move(full),
                              params_, avgdl, record_traffic);
  peer.MarkPublished(s, key, key_hash, std::move(key_docs));
  return payload;
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
    // participants are independent of each other.
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

    // Phase 2 (parallel): each task scans its peer's candidates AND
    // inserts them straight into the global index — InsertPostings
    // buffers each contribution on its key's shard under the shard
    // mutex, so the whole wave proceeds without a global lock, and each
    // task frees its candidate map before scanning the next peer (peak
    // memory ~num_threads maps). Every mutation is either task-local
    // (peer state, per-task counters), per-key commutative (shard
    // buffers: EndLevel sorts contributors and folds order-independent
    // merges) or aggregate-only (sharded traffic counters) — so any
    // insertion interleaving yields the same observable state, and with
    // no pool the loop IS the serial protocol in ascending peer order.
    Stopwatch scan_watch;
    ParallelForEach(pool_, tasks.size(), [&](size_t i) {
      ScanTask& task = tasks[i];
      Peer& peer = *task.peer;
      hdk::KeyMap<index::PostingList> candidates =
          s == 1 ? peer.BuildLevel1(store_, very_frequent_, &task.generation)
          : task.is_new
              ? peer.BuildLevel(s, store_, &task.generation,
                                task.reserve_hint)
              : peer.BuildLevelDelta(s, store_, &task.generation);
      task.candidates = candidates.size();

      // Hash-carrying insert wave: the candidate map caches each key's
      // Hash64, so the published-set probe, overlay routing, shard choice
      // and pending-buffer probe all reuse it.
      for (size_t ci = 0; ci < candidates.size(); ++ci) {
        auto& [key, pl] = candidates.entry(ci);
        const uint64_t key_hash = candidates.hash_at(ci);
        if (!task.is_new && peer.HasPublished(s, key, key_hash)) continue;
        ++task.keys_inserted;
        task.postings_inserted += InsertCandidate(
            peer, s, key, key_hash, std::move(pl), avgdl,
            /*record_traffic=*/true);
      }
    });
    phase_timings_.scan_seconds += scan_watch.ElapsedSeconds();

    // Phase 3 (serial): reduce the per-task counters in ascending peer
    // order.
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

  // Keep the published classification counts exact (a growth step may
  // reclassify keys inserted long ago).
  for (uint32_t s = 1; s <= params_.s_max; ++s) {
    global_->CountKeys(s, &report_.levels[s - 1].hdks,
                       &report_.levels[s - 1].ndks);
  }
}

}  // namespace hdk::p2p
