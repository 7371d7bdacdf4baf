// SingleTermEngine — the naive distributed single-term baseline behind the
// unified SearchEngine interface. Supports the same membership lifecycle
// as the HDK engine: joining peers insert their local posting lists,
// departing peers' postings are dropped from the global term fragments
// and their fragment is re-replicated to the surviving responsible peers.
#ifndef HDKP2P_ENGINE_ST_ENGINE_H_
#define HDKP2P_ENGINE_ST_ENGINE_H_

#include <atomic>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "corpus/document.h"
#include "engine/engine_config.h"
#include "engine/search_engine.h"
#include "net/fault.h"
#include "net/traffic.h"
#include "p2p/single_term.h"

namespace hdk::engine {

/// Distributed single-term indexing + BM25 retrieval baseline.
class SingleTermEngine : public SearchEngine {
 public:
  static Result<std::unique_ptr<SingleTermEngine>> Build(
      const EngineConfig& config, const corpus::DocumentStore& store,
      std::vector<std::pair<DocId, DocId>> peer_ranges);

  // -- SearchEngine ----------------------------------------------------

  std::string_view name() const override { return "single-term"; }

  /// Terms are single-homed here, so the hedge knob has nothing to race
  /// against and is ignored; the deadline budget is likewise ignored (the
  /// baseline keeps the paper's cost model undisturbed).
  SearchResponse Search(std::span<const TermId> query, size_t k,
                        const SearchOptions& options, PeerId origin) override;
  using SearchEngine::Search;
  using SearchEngine::SearchBatch;

  Status ApplyMembership(const corpus::DocumentStore& store,
                         std::span<const MembershipEvent> events) override;
  using SearchEngine::ApplyMembership;

  size_t num_peers() const override { return overlay_->num_peers(); }
  uint64_t num_documents() const override {
    return engine_->num_documents();
  }

  /// Figure 3 / Figure 4 baseline metrics (equal: nothing is truncated).
  double StoredPostingsPerPeer() const override;
  double InsertedPostingsPerPeer() const override;

  const net::TrafficRecorder* traffic() const override {
    return traffic_.get();
  }

  /// Installs (or replaces) the transport fault plan on the engine's
  /// own injector.
  Status InstallFaultPlan(const net::FaultPlan& plan) override {
    injector_.Install(plan);
    return Status::OK();
  }

  /// The engine's own fault injector (tests kill peers through it).
  net::FaultInjector& fault_injector() { return injector_; }
  const net::PeerHealth& peer_health() const { return health_; }

  const p2p::SingleTermP2PEngine& p2p_engine() const { return *engine_; }

  /// What the most recent departure did.
  const p2p::SingleTermP2PEngine::DepartureReport& last_departure() const {
    return last_departure_;
  }

  /// The [first, last) document range of every current peer (holes after
  /// churn) — the ranges a from-scratch reference build must cover.
  const std::vector<DocRange>& peer_ranges() const { return ranges_; }

 protected:
  /// See OriginRotation: race-free rotation, departure-safe origins.
  PeerId AcquireOrigin() override {
    return next_origin_.Next(num_peers());
  }
  ThreadPool* batch_pool() const override { return pool_.get(); }

 private:
  SingleTermEngine() = default;

  Status ValidateEvents(const corpus::DocumentStore& store,
                        std::span<const MembershipEvent> events) const;

  /// Transport fault state, owned by the engine and handed to the P2P
  /// engine as a net::Resilience bundle. Inert until a plan is
  /// installed.
  net::FaultInjector injector_;
  net::PeerHealth health_;
  const corpus::DocumentStore* store_ = nullptr;
  std::unique_ptr<ThreadPool> pool_;  // nullptr = serial
  std::unique_ptr<dht::Overlay> overlay_;
  std::unique_ptr<net::TrafficRecorder> traffic_;
  std::unique_ptr<p2p::SingleTermP2PEngine> engine_;
  /// Per-peer document ranges; `frontier_` is one past the highest ever
  /// indexed document (departed ranges are not re-used).
  std::vector<DocRange> ranges_;
  DocId frontier_ = 0;
  p2p::SingleTermP2PEngine::DepartureReport last_departure_;
  OriginRotation next_origin_;
};

}  // namespace hdk::engine

#endif  // HDKP2P_ENGINE_ST_ENGINE_H_
