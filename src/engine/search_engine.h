// SearchEngine — the unified facade over every retrieval backend.
//
// All three engines of the reproduction (the paper's HDK P2P engine, the
// distributed single-term baseline, the centralized BM25 reference)
// implement this interface, so benches, examples and tests drive them
// polymorphically: one result type (SearchResponse = ranked ScoredDocs +
// QueryCost), one batch entry point for throughput workloads, and one
// MEMBERSHIP lifecycle — ApplyMembership() consumes join AND departure
// events, covering both the paper's evolution experiment (peers join in
// waves with their documents) and the churn real overlays exhibit (peers
// leave, taking their documents with them). Every backend keeps the
// invariant that the churned engine is posting-for-posting identical to a
// from-scratch build over the surviving document ranges.
//
// Engines can also be composed from a string spec through the decorator
// registry, e.g. "cached(hdk)" for a result-cache front over the HDK
// engine — see engine/engine_factory.h.
//
// Quickstart (see also examples/quickstart.cpp and README.md):
//
//   corpus::DocumentStore store = ...;        // analyzed documents
//   engine::EngineConfig config;              // DFmax, w, smax, overlay...
//   auto built = engine::MakeEngine(engine::EngineKind::kHdk, config,
//                                   store, engine::SplitEvenly(store.size(), 4));
//   auto response = (*built)->Search(query_terms, 20);
//   // ... more documents arrive, four peers join with the delta, and one
//   // peer churns out:
//   (*built)->ApplyMembership(store, {
//       engine::MembershipEvent::Join({old_size, old_size + docs}),
//       engine::MembershipEvent::Leave(/*peer=*/2)});
#ifndef HDKP2P_ENGINE_SEARCH_ENGINE_H_
#define HDKP2P_ENGINE_SEARCH_ENGINE_H_

#include <atomic>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/query_cost.h"
#include "common/search_options.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "corpus/document.h"
#include "corpus/query_gen.h"
#include "engine/membership.h"
#include "index/search_result.h"
#include "net/fault.h"
#include "net/traffic.h"
#include "sync/sync.h"

namespace hdk::engine {

using index::ScoredDoc;
using index::SearchResponse;

/// Result of a batch execution: per-query responses plus the summed cost.
struct BatchResponse {
  std::vector<SearchResponse> responses;
  QueryCost total;
};

/// The query-origin rotation shared by the distributed backends. Atomic,
/// so concurrent batches over a shared engine stay race-free (each batch
/// still pre-assigns origins in query order); the stored value is kept
/// reduced into [0, num_peers), matching the serial rotation's origin
/// sequence across join waves exactly. Next() additionally reduces the
/// returned origin through the LIVE peer count, so a stale rotation value
/// can never address a departed peer; Clamp() restores the reduced-store
/// invariant after a membership batch shrank the network.
class OriginRotation {
 public:
  PeerId Next(size_t num_peers) {
    PeerId current = next_.load(std::memory_order_relaxed);
    while (!next_.compare_exchange_weak(
        current, static_cast<PeerId>((current + 1) % num_peers),
        std::memory_order_relaxed)) {
    }
    return static_cast<PeerId>(current % num_peers);
  }

  void Clamp(size_t num_peers) {
    next_.store(static_cast<PeerId>(
                    next_.load(std::memory_order_relaxed) % num_peers),
                std::memory_order_relaxed);
  }

  /// Snapshot support: the raw rotation position, and its wholesale
  /// replacement on load (serial sections only).
  PeerId value() const { return next_.load(std::memory_order_relaxed); }
  void Restore(PeerId next) {
    next_.store(next, std::memory_order_relaxed);
  }

 private:
  std::atomic<PeerId> next_{0};
};

/// The unified engine interface.
class SearchEngine {
 public:
  virtual ~SearchEngine() = default;

  /// Stable backend name ("hdk", "single-term", "centralized").
  virtual std::string_view name() const = 0;

  /// Executes one query from `origin` and returns the ranked top-k with
  /// unified cost accounting. kInvalidPeer lets the engine pick the origin
  /// (distributed backends rotate across peers; the centralized backend
  /// has no notion of origin). `options` carries the per-query overload
  /// knobs — deadline budget and hedged reads, see
  /// common/search_options.h; backends without a simulated network
  /// ignore them. The default-constructed options reproduce the
  /// pre-overload engine byte for byte.
  virtual SearchResponse Search(std::span<const TermId> query, size_t k,
                                const SearchOptions& options,
                                PeerId origin) = 0;

  /// Convenience forms: default options, and options without an origin.
  SearchResponse Search(std::span<const TermId> query, size_t k,
                        PeerId origin = kInvalidPeer) {
    return Search(query, k, SearchOptions{}, origin);
  }
  SearchResponse Search(std::span<const TermId> query, size_t k,
                        const SearchOptions& options) {
    return Search(query, k, options, kInvalidPeer);
  }

  /// Executes a query workload and aggregates cost — the throughput entry
  /// point the figure benches run. The default implementation fans the
  /// queries out across the engine's thread pool (serial when the engine
  /// was configured with num_threads = 1): origins are
  /// pre-assigned in query order, each worker chunk accumulates its own
  /// QueryCost, and the per-chunk costs are reduced in chunk order — so
  /// responses AND the total are identical to a serial loop over
  /// Search(). Backends may override with a fused path.
  virtual BatchResponse SearchBatch(std::span<const corpus::Query> queries,
                                    size_t k, const SearchOptions& options);

  BatchResponse SearchBatch(std::span<const corpus::Query> queries,
                            size_t k) {
    return SearchBatch(queries, k, SearchOptions{});
  }

  /// Applies a sequence of membership events — the general lifecycle
  /// entry point. Joins index only the document delta (runs of
  /// consecutive join events are coalesced into one indexing wave);
  /// departures purge the departed peer's documents and contributions so
  /// the engine is posting-for-posting identical to a from-scratch build
  /// over the surviving ranges. The whole batch is validated up front: a
  /// rejected batch leaves the engine untouched. `store` must be the same
  /// (grown-in-place) store the engine was built on.
  virtual Status ApplyMembership(const corpus::DocumentStore& store,
                                 std::span<const MembershipEvent> events) = 0;

  /// Convenience overload for brace-initialized event lists.
  Status ApplyMembership(const corpus::DocumentStore& store,
                         std::initializer_list<MembershipEvent> events) {
    return ApplyMembership(
        store, std::span<const MembershipEvent>(events.begin(),
                                                events.size()));
  }

  /// Joins peers holding `new_ranges` (contiguous continuation of the
  /// indexed document frontier of `store`, one range per joining peer) —
  /// the paper's evolution experiment, expressed as membership events.
  Status AddPeers(const corpus::DocumentStore& store,
                  const std::vector<std::pair<DocId, DocId>>& new_ranges) {
    return ApplyMembership(store, JoinEvents(new_ranges));
  }

  // -- observability ---------------------------------------------------

  virtual size_t num_peers() const = 0;
  virtual uint64_t num_documents() const = 0;

  /// Average postings stored per peer (Figure 3 metric).
  virtual double StoredPostingsPerPeer() const = 0;

  /// Average postings inserted per peer during indexing (Figure 4 metric).
  virtual double InsertedPostingsPerPeer() const = 0;

  /// Network traffic recorder; nullptr for backends without a network
  /// (the centralized reference).
  virtual const net::TrafficRecorder* traffic() const { return nullptr; }

  /// Installs (or replaces) a fault-injection plan on the engine's
  /// transport — the "faulty:seed=7,loss=0.01(hdk)" spec decorator
  /// routes here (see net/fault.h for the plan grammar). An inactive
  /// plan restores perfect transport. Backends without an injectable
  /// transport return Unimplemented; decorators forward to the wrapped
  /// engine.
  virtual Status InstallFaultPlan(const net::FaultPlan& plan) {
    (void)plan;
    return Status::Unimplemented(
        "this engine backend does not support fault injection");
  }

  /// Persists the engine's complete built state to a single snapshot file
  /// (see engine/engine_snapshot.h and the README's "Persistence &
  /// snapshots" section). Backends without snapshot support return
  /// Unimplemented. Serial sections only (no concurrent Search/membership
  /// calls).
  virtual Status SaveSnapshot(const std::string& path) const {
    (void)path;
    return Status::Unimplemented(
        "this engine backend does not support snapshots");
  }

  /// Runs one anti-entropy sweep over the replica pairs of the engine's
  /// distributed index (see sync/sync.h): detects divergence — lost
  /// replica pushes / forget notices, killed-then-revived holders — and
  /// self-heals it, returning what the sweep found and shipped. A no-op
  /// returning all-zero stats when the engine runs unreplicated;
  /// backends without a replicated distributed index return
  /// Unimplemented. Serial sections only.
  virtual Result<sync::SyncStats> RunAntiEntropy() {
    return Status::Unimplemented(
        "this engine backend does not support anti-entropy sync");
  }

 protected:
  /// The shared ApplyMembership skeleton every backend dispatches
  /// through: runs of consecutive join events coalesce into one wave
  /// handed to `join_wave`, departures go to `departure` one by one.
  /// The caller validates the whole batch first (see
  /// ValidateMembershipEvents).
  static Status DispatchMembershipEvents(
      std::span<const MembershipEvent> events,
      const std::function<Status(const std::vector<DocRange>&)>& join_wave,
      const std::function<Status(PeerId)>& departure);

  /// Origin of the next auto-assigned query. Distributed backends override
  /// this with their peer rotation so that rotation state is mutated ONLY
  /// here (serially, before a batch fans out) and Search() with an
  /// explicit origin stays safe to call from pool workers.
  virtual PeerId AcquireOrigin() { return kInvalidPeer; }

  /// The pool SearchBatch fans out on; nullptr means serial execution.
  virtual ThreadPool* batch_pool() const { return nullptr; }
};

}  // namespace hdk::engine

#endif  // HDKP2P_ENGINE_SEARCH_ENGINE_H_
