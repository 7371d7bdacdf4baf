// ResultCacheEngine — the first engine decorator: a bounded LRU result
// cache in front of any SearchEngine (the "cached(...)" spec of the
// engine registry). Heavy-traffic workloads are Zipf-skewed (Section 4 of
// the paper models exactly that), so a small cache in front of the
// network absorbs the popular head: a hit answers from the cache with
// ZERO network work, a miss runs the wrapped engine and remembers the
// response. Hits and misses surface through QueryCost::cache_hits /
// cache_misses, and every membership event invalidates the whole cache —
// the document set changed, so cached rankings are stale by definition.
//
// Result identity: hit or miss, the ranked results are identical to the
// undecorated engine's (asserted by the engine-spec tests). Cost
// counters differ on hits — that is the point of a cache.
#ifndef HDKP2P_ENGINE_RESULT_CACHE_H_
#define HDKP2P_ENGINE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "engine/search_engine.h"

namespace hdk::engine {

/// Capacity of a "cached(...)" decorator whose spec gives none
/// ("cached:256(hdk)" overrides it).
inline constexpr size_t kDefaultResultCacheCapacity = 1024;

/// LRU result cache over query (terms, k) -> SearchResponse.
class ResultCacheEngine : public SearchEngine {
 public:
  /// \param inner    the wrapped engine (owned).
  /// \param capacity maximum cached responses (>= 1).
  ResultCacheEngine(std::unique_ptr<SearchEngine> inner, size_t capacity);

  // -- SearchEngine ----------------------------------------------------

  /// "cached(<inner>)".
  std::string_view name() const override { return name_; }

  /// Cache lookup on (query terms, k); `origin` only matters on a miss
  /// (results are origin-independent — origins shape routing cost, not
  /// ranking), and so do the overload options (hits never touch the
  /// network). Degraded responses are never cached.
  SearchResponse Search(std::span<const TermId> query, size_t k,
                        const SearchOptions& options, PeerId origin) override;
  using SearchEngine::Search;

  /// Fused batch: hits answer inline, in-batch duplicates of a miss
  /// piggyback on its one execution (they count as hits — nothing extra
  /// travels), the distinct misses run through the inner engine's own
  /// (parallel) SearchBatch, and responses are stitched back in query
  /// order.
  BatchResponse SearchBatch(std::span<const corpus::Query> queries, size_t k,
                            const SearchOptions& options) override;
  using SearchEngine::SearchBatch;

  /// Delegates to the inner engine and invalidates the cache — any
  /// membership change alters the document set, so every cached ranking
  /// is stale.
  Status ApplyMembership(const corpus::DocumentStore& store,
                         std::span<const MembershipEvent> events) override;
  using SearchEngine::ApplyMembership;

  size_t num_peers() const override { return inner_->num_peers(); }
  uint64_t num_documents() const override {
    return inner_->num_documents();
  }
  double StoredPostingsPerPeer() const override {
    return inner_->StoredPostingsPerPeer();
  }
  double InsertedPostingsPerPeer() const override {
    return inner_->InsertedPostingsPerPeer();
  }
  const net::TrafficRecorder* traffic() const override {
    return inner_->traffic();
  }
  /// Fault injection lives in the backend; forward.
  Status InstallFaultPlan(const net::FaultPlan& plan) override {
    return inner_->InstallFaultPlan(plan);
  }
  /// The cache is derived state; a snapshot persists the inner engine.
  Status SaveSnapshot(const std::string& path) const override {
    return inner_->SaveSnapshot(path);
  }
  /// A sweep that healed divergence may change replica-served answers;
  /// drop the cached responses alongside.
  Result<sync::SyncStats> RunAntiEntropy() override {
    auto result = inner_->RunAntiEntropy();
    if (result.ok()) Invalidate();
    return result;
  }

  // -- cache observability ---------------------------------------------

  uint64_t hits() const;
  uint64_t misses() const;
  /// Hit fraction of all lookups so far (0 when none).
  double hit_rate() const;
  size_t size() const;
  size_t capacity() const { return capacity_; }
  /// Drops every cached response (counters stay).
  void Invalidate();

  SearchEngine& inner() { return *inner_; }
  const SearchEngine& inner() const { return *inner_; }

 private:
  struct CacheKey {
    std::vector<TermId> terms;
    size_t k = 0;

    bool operator==(const CacheKey&) const = default;
    struct Hasher {
      size_t operator()(const CacheKey& key) const {
        const uint64_t h = HashTermIds(key.terms.data(), key.terms.size());
        return static_cast<size_t>(HashCombine(h, key.k));
      }
    };
  };
  struct Entry {
    CacheKey key;
    SearchResponse response;
  };

  /// Returns the cached response and refreshes recency; nullopt on miss.
  /// Caller holds `mu_`.
  std::list<Entry>::iterator FindLocked(const CacheKey& key);
  void InsertLocked(CacheKey key, const SearchResponse& response);

  std::unique_ptr<SearchEngine> inner_;
  std::string name_;
  size_t capacity_;

  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKey::Hasher>
      map_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace hdk::engine

#endif  // HDKP2P_ENGINE_RESULT_CACHE_H_
