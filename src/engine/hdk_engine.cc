#include "engine/hdk_engine.h"

#include <algorithm>
#include <string>

namespace hdk::engine {

Result<std::unique_ptr<HdkSearchEngine>> HdkSearchEngine::Build(
    const EngineConfig& config, const corpus::DocumentStore& store,
    std::vector<std::pair<DocId, DocId>> peer_ranges) {
  HDK_RETURN_NOT_OK(config.hdk.Validate());
  if (peer_ranges.empty()) {
    return Status::InvalidArgument("HdkSearchEngine: need >= 1 peer");
  }
  HDK_RETURN_NOT_OK(corpus::ValidateDisjointRanges(peer_ranges, store.size()));

  auto engine = std::unique_ptr<HdkSearchEngine>(new HdkSearchEngine());
  engine->config_ = config;
  engine->store_ = &store;
  // Ranges-based statistics: a scratch build over a churned network's
  // surviving ranges (holes included) must see exactly those documents.
  engine->stats_ =
      std::make_unique<corpus::CollectionStats>(store, peer_ranges);
  engine->pool_ = ThreadPool::MakeIfParallel(config.num_threads);
  engine->overlay_ =
      MakeOverlay(config.overlay, peer_ranges.size(), config.overlay_seed);
  engine->traffic_ = std::make_unique<net::TrafficRecorder>();

  // The fault plan is live from the first indexing message: losses are
  // absorbed by the protocol's redelivery path, so the published index
  // is identical to a fault-free build whenever no peer dies for good.
  const net::Resilience resilience = engine->InstallResilience();
  engine->protocol_ = std::make_unique<p2p::HdkIndexingProtocol>(
      config.hdk, store, engine->overlay_.get(), engine->traffic_.get(),
      engine->pool_.get(), resilience);
  HDK_ASSIGN_OR_RETURN(engine->global_,
                       engine->protocol_->Run(peer_ranges, *engine->stats_));

  engine->retriever_ = std::make_unique<p2p::HdkRetriever>(
      engine->global_.get(), config.hdk, engine->stats_->num_documents(),
      engine->stats_->average_document_length(), engine->traffic_.get());
  return engine;
}

Status HdkSearchEngine::ValidateEvents(
    const corpus::DocumentStore& store,
    std::span<const MembershipEvent> events) const {
  if (&store != store_) {
    return Status::InvalidArgument(
        "ApplyMembership: must use the store the engine was built on");
  }
  return ValidateMembershipEvents(events, num_peers(),
                                  protocol_->indexed_documents(),
                                  store.size());
}

Status HdkSearchEngine::ApplyJoinWave(
    const std::vector<DocRange>& new_ranges) {
  HDK_RETURN_NOT_OK(ValidateJoinRanges(protocol_->indexed_documents(),
                                       new_ranges, store_->size()));

  // 1. The joining peers enter the overlay; the protocol's Grow hands
  //    the published fragments over to the re-balanced key space.
  for (size_t i = 0; i < new_ranges.size(); ++i) {
    HDK_RETURN_NOT_OK(overlay_->AddPeer());
  }

  // 2. Collection statistics over the grown ranges (very-frequent cutoff,
  //    average document length): the current ones plus the joining
  //    documents — departures may have punched holes into the indexed
  //    prefix, so they are never a prefix rescan.
  auto stats = std::make_unique<corpus::CollectionStats>(*stats_);
  stats->AddRanges(*store_, new_ranges);
  stats_ = std::move(stats);

  // 3. Handover and delta indexing run.
  p2p::GrowthStats growth;
  HDK_RETURN_NOT_OK(protocol_->Grow(new_ranges, *stats_, &growth));
  last_growth_ = growth;
  return Status::OK();
}

Status HdkSearchEngine::ApplyDeparture(PeerId peer) {
  // Collection statistics over the survivors only: the current ones
  // minus the departed range.
  const DocRange departed = protocol_->peer_ranges()[peer];
  auto stats = std::make_unique<corpus::CollectionStats>(*stats_);
  stats->RemoveRanges(*store_, {&departed, 1});

  p2p::DepartureStats departure;
  HDK_RETURN_NOT_OK(protocol_->Depart(
      peer, *stats,
      [this, peer] {
        Status status = overlay_->RemovePeer(peer);
        // The overlay just renumbered ids above `peer` down by one; the
        // fault state must follow in the same instant, BEFORE the repair
        // that Depart runs next — otherwise the survivor that inherited
        // a dead peer's id would swallow the re-admitted contributions
        // (evicting a dead peer must clear its death, and a scripted
        // death of peer 7 now concerns peer 6).
        injector_.OnPeerRemoved(peer);
        health_.OnPeerRemoved(peer);
        return status;
      },
      &departure));
  stats_ = std::move(stats);
  last_departure_ = departure;
  return Status::OK();
}

Result<sync::SyncStats> HdkSearchEngine::RunAntiEntropy() {
  if (config_.replication <= 1) return sync::SyncStats{};
  return global_->ReconcileReplicas();
}

net::Resilience HdkSearchEngine::InstallResilience() {
  injector_.Install(config_.faults);
  return net::Resilience{&injector_, &health_, config_.replication,
                         config_.sync};
}

Result<size_t> HdkSearchEngine::EvictDeadPeers(
    const corpus::DocumentStore& store) {
  std::vector<MembershipEvent> leaves;
  for (PeerId p = 0; p < num_peers(); ++p) {
    if (injector_.PeerDead(p)) leaves.push_back(MembershipEvent::Leave(p));
  }
  if (leaves.empty()) return size_t{0};
  if (leaves.size() >= num_peers()) {
    return Status::FailedPrecondition(
        "EvictDeadPeers: every peer is dead — nothing can host the "
        "repaired index");
  }
  // Descending id: each departure renumbers only ids above it, so the
  // remaining events stay addressed correctly.
  std::reverse(leaves.begin(), leaves.end());
  HDK_RETURN_NOT_OK(ApplyMembership(store, leaves));
  return leaves.size();
}

Status HdkSearchEngine::ApplyMembership(
    const corpus::DocumentStore& store,
    std::span<const MembershipEvent> events) {
  HDK_RETURN_NOT_OK(ValidateEvents(store, events));

  MembershipSummary summary;
  summary.events = events.size();
  HDK_RETURN_NOT_OK(DispatchMembershipEvents(
      events,
      [&](const std::vector<DocRange>& wave) {
        HDK_RETURN_NOT_OK(ApplyJoinWave(wave));
        summary.joined_peers += wave.size();
        return Status::OK();
      },
      [&](PeerId peer) {
        HDK_RETURN_NOT_OK(ApplyDeparture(peer));
        ++summary.departed_peers;
        return Status::OK();
      }));
  last_membership_ = summary;

  // The retriever ranks with global collection statistics; refresh it.
  retriever_ = std::make_unique<p2p::HdkRetriever>(
      global_.get(), config_.hdk, stats_->num_documents(),
      stats_->average_document_length(), traffic_.get());
  // Keep the query-origin rotation inside the live peer set.
  next_origin_.Clamp(num_peers());
  return Status::OK();
}

SearchResponse HdkSearchEngine::Search(std::span<const TermId> query,
                                       size_t k, const SearchOptions& options,
                                       PeerId origin) {
  // With an explicit origin this mutates nothing — SearchBatch relies on
  // that to fan queries out across the pool.
  if (origin == kInvalidPeer) origin = AcquireOrigin();
  return retriever_->Search(origin, query, k, options);
}

double HdkSearchEngine::StoredPostingsPerPeer() const {
  return static_cast<double>(global_->TotalStoredPostings()) /
         static_cast<double>(num_peers());
}

double HdkSearchEngine::InsertedPostingsPerPeer() const {
  const auto& per_peer = protocol_->report().inserted_postings_per_peer;
  uint64_t total = 0;
  for (uint64_t v : per_peer) total += v;
  return static_cast<double>(total) / static_cast<double>(per_peer.size());
}

Status HdkSearchEngine::SaveSnapshot(const std::string& path) const {
  return SaveEngineSnapshot(*this, path);
}

}  // namespace hdk::engine
