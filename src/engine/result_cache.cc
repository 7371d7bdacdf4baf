#include "engine/result_cache.h"

#include <algorithm>

namespace hdk::engine {

ResultCacheEngine::ResultCacheEngine(std::unique_ptr<SearchEngine> inner,
                                     size_t capacity)
    : inner_(std::move(inner)),
      name_("cached(" + std::string(inner_->name()) + ")"),
      capacity_(std::max<size_t>(capacity, 1)) {}

std::list<ResultCacheEngine::Entry>::iterator ResultCacheEngine::FindLocked(
    const CacheKey& key) {
  auto it = map_.find(key);
  if (it == map_.end()) return lru_.end();
  // Refresh recency: splice the entry to the front.
  lru_.splice(lru_.begin(), lru_, it->second);
  return lru_.begin();
}

void ResultCacheEngine::InsertLocked(CacheKey key,
                                     const SearchResponse& response) {
  if (map_.count(key) > 0) return;  // raced duplicate execution
  lru_.push_front(Entry{std::move(key), response});
  map_[lru_.front().key] = lru_.begin();
  while (lru_.size() > capacity_) {
    map_.erase(lru_.back().key);
    lru_.pop_back();
  }
}

SearchResponse ResultCacheEngine::Search(std::span<const TermId> query,
                                         size_t k,
                                         const SearchOptions& options,
                                         PeerId origin) {
  CacheKey key{std::vector<TermId>(query.begin(), query.end()), k};
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = FindLocked(key);
    if (it != lru_.end()) {
      ++hits_;
      SearchResponse response;
      response.results = it->response.results;
      response.cost.cache_hits = 1;  // nothing travelled
      return response;
    }
    ++misses_;
  }
  SearchResponse response = inner_->Search(query, k, options, origin);
  response.cost.cache_misses = 1;
  // Never cache a degraded response: its ranking is missing unreachable
  // keys, and serving it as a hit would outlive the outage.
  if (!response.degraded) {
    std::lock_guard<std::mutex> lock(mu_);
    InsertLocked(std::move(key), response);
  }
  return response;
}

BatchResponse ResultCacheEngine::SearchBatch(
    std::span<const corpus::Query> queries, size_t k,
    const SearchOptions& options) {
  BatchResponse batch;
  batch.responses.resize(queries.size());
  if (queries.empty()) return batch;

  // Answer the hits inline and collapse in-batch duplicates: a query that
  // repeats an earlier miss of the SAME batch piggybacks on that one
  // execution (a repeated-query batch hits even on a cold cache). The
  // remaining distinct misses run as one fused inner batch, which fans
  // out on the inner engine's pool.
  std::vector<size_t> miss_index;                    // batch position
  std::vector<corpus::Query> miss_queries;           // distinct misses
  std::vector<std::pair<size_t, size_t>> duplicates; // position -> miss #
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::unordered_map<CacheKey, size_t, CacheKey::Hasher> pending;
    for (size_t i = 0; i < queries.size(); ++i) {
      CacheKey key{std::vector<TermId>(queries[i].terms.begin(),
                                       queries[i].terms.end()),
                   k};
      auto it = FindLocked(key);
      if (it != lru_.end()) {
        ++hits_;
        batch.responses[i].results = it->response.results;
        batch.responses[i].cost.cache_hits = 1;
        continue;
      }
      auto [pending_it, first_miss] =
          pending.try_emplace(key, miss_queries.size());
      if (!first_miss) {
        ++hits_;
        duplicates.emplace_back(i, pending_it->second);
        continue;
      }
      ++misses_;
      miss_index.push_back(i);
      miss_queries.push_back(queries[i]);
    }
  }

  if (!miss_queries.empty()) {
    BatchResponse inner_batch = inner_->SearchBatch(miss_queries, k, options);
    for (const auto& [position, miss] : duplicates) {
      batch.responses[position].results =
          inner_batch.responses[miss].results;
      batch.responses[position].cost.cache_hits = 1;
      // A duplicate of a degraded miss shares its partial ranking —
      // surface that honestly.
      batch.responses[position].degraded =
          inner_batch.responses[miss].degraded;
    }
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t j = 0; j < miss_index.size(); ++j) {
      SearchResponse& response = inner_batch.responses[j];
      response.cost.cache_misses = 1;
      // Never cache a degraded response (see Search).
      if (!response.degraded) {
        CacheKey key{std::vector<TermId>(miss_queries[j].terms.begin(),
                                         miss_queries[j].terms.end()),
                     k};
        InsertLocked(std::move(key), response);
      }
      batch.responses[miss_index[j]] = std::move(response);
    }
  }
  for (const SearchResponse& response : batch.responses) {
    batch.total += response.cost;
  }
  return batch;
}

Status ResultCacheEngine::ApplyMembership(
    const corpus::DocumentStore& store,
    std::span<const MembershipEvent> events) {
  // Invalidate even on failure: a third-party inner layer may have
  // partially applied the batch before erroring, and serving pre-churn
  // responses as hits would be silently wrong. Dropping a cold cache on
  // a fully-rejected batch costs nothing but recomputation.
  Status status = inner_->ApplyMembership(store, events);
  Invalidate();
  return status;
}

uint64_t ResultCacheEngine::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t ResultCacheEngine::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

double ResultCacheEngine::hit_rate() const {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t lookups = hits_ + misses_;
  return lookups == 0 ? 0.0
                      : static_cast<double>(hits_) /
                            static_cast<double>(lookups);
}

size_t ResultCacheEngine::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

void ResultCacheEngine::Invalidate() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  map_.clear();
}

}  // namespace hdk::engine
