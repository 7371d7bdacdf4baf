#include "engine/st_engine.h"

#include "engine/partition.h"

namespace hdk::engine {

Result<std::unique_ptr<SingleTermEngine>> SingleTermEngine::Build(
    const EngineConfig& config, const corpus::DocumentStore& store,
    std::vector<std::pair<DocId, DocId>> peer_ranges) {
  if (peer_ranges.empty()) {
    return Status::InvalidArgument("SingleTermEngine: need >= 1 peer");
  }
  HDK_RETURN_NOT_OK(corpus::ValidateDisjointRanges(peer_ranges, store.size()));
  auto engine = std::unique_ptr<SingleTermEngine>(new SingleTermEngine());
  engine->store_ = &store;
  engine->pool_ = ThreadPool::MakeIfParallel(config.num_threads);
  engine->overlay_ =
      MakeOverlay(config.overlay, peer_ranges.size(), config.overlay_seed);
  engine->traffic_ = std::make_unique<net::TrafficRecorder>();
  engine->injector_.Install(config.faults);
  engine->engine_ = std::make_unique<p2p::SingleTermP2PEngine>(
      engine->overlay_.get(), engine->traffic_.get(),
      net::Resilience{&engine->injector_, &engine->health_,
                      /*replication=*/1, /*sync=*/{}});
  HDK_RETURN_NOT_OK(engine->engine_->IndexPeers(
      /*first_peer=*/0, store, peer_ranges, engine->pool_.get()));
  engine->ranges_ = std::move(peer_ranges);
  for (const auto& [first, last] : engine->ranges_) {
    engine->frontier_ = std::max(engine->frontier_, last);
  }
  return engine;
}

Status SingleTermEngine::ValidateEvents(
    const corpus::DocumentStore& store,
    std::span<const MembershipEvent> events) const {
  if (&store != store_) {
    return Status::InvalidArgument(
        "ApplyMembership: must use the store the engine was built on");
  }
  return ValidateMembershipEvents(events, ranges_.size(), frontier_,
                                  store.size());
}

Status SingleTermEngine::ApplyMembership(
    const corpus::DocumentStore& store,
    std::span<const MembershipEvent> events) {
  HDK_RETURN_NOT_OK(ValidateEvents(store, events));

  HDK_RETURN_NOT_OK(DispatchMembershipEvents(
      events,
      [&](const std::vector<DocRange>& wave) {
        const PeerId first_new =
            static_cast<PeerId>(overlay_->num_peers());
        for (size_t j = 0; j < wave.size(); ++j) {
          HDK_RETURN_NOT_OK(overlay_->AddPeer());
        }
        engine_->OnOverlayGrown();
        HDK_RETURN_NOT_OK(
            engine_->IndexPeers(first_new, store, wave, pool_.get()));
        for (const DocRange& r : wave) {
          ranges_.push_back(r);
          frontier_ = std::max(frontier_, r.second);
        }
        return Status::OK();
      },
      [&](PeerId peer) {
        const DocRange range = ranges_[peer];
        ranges_.erase(ranges_.begin() + peer);
        HDK_RETURN_NOT_OK(overlay_->RemovePeer(peer));
        // The overlay renumbered ids above `peer` down by one; the
        // fault state must follow before the repair republication.
        injector_.OnPeerRemoved(peer);
        health_.OnPeerRemoved(peer);
        last_departure_ = engine_->OnPeerDeparted(
            peer, store, range.first, range.second, ranges_);
        return Status::OK();
      }));
  // Keep the query-origin rotation inside the live peer set.
  next_origin_.Clamp(num_peers());
  return Status::OK();
}

SearchResponse SingleTermEngine::Search(std::span<const TermId> query,
                                        size_t k,
                                        const SearchOptions& /*options*/,
                                        PeerId origin) {
  // With an explicit origin this mutates nothing — SearchBatch relies on
  // that to fan queries out across the pool.
  if (origin == kInvalidPeer) origin = AcquireOrigin();
  return engine_->Search(origin, query, k);
}

double SingleTermEngine::StoredPostingsPerPeer() const {
  return static_cast<double>(engine_->TotalStoredPostings()) /
         static_cast<double>(num_peers());
}

double SingleTermEngine::InsertedPostingsPerPeer() const {
  uint64_t total = 0;
  for (PeerId p = 0; p < num_peers(); ++p) {
    total += engine_->InsertedPostingsBy(p);
  }
  return static_cast<double>(total) / static_cast<double>(num_peers());
}

}  // namespace hdk::engine
