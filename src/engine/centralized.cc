#include "engine/centralized.h"

#include <algorithm>

#include "engine/partition.h"

namespace hdk::engine {

Result<std::unique_ptr<CentralizedBm25Engine>> CentralizedBm25Engine::Build(
    const corpus::DocumentStore& store, index::Bm25Params params,
    DocId num_docs, size_t num_threads) {
  if (num_docs == 0) num_docs = static_cast<DocId>(store.size());
  if (num_docs > store.size()) {
    return Status::OutOfRange("CentralizedBm25Engine: num_docs > store");
  }
  auto engine = std::unique_ptr<CentralizedBm25Engine>(
      new CentralizedBm25Engine());
  engine->store_ = &store;
  engine->params_ = params;
  engine->pool_ = ThreadPool::MakeIfParallel(num_threads);
  HDK_RETURN_NOT_OK(engine->IndexRange(0, num_docs));
  engine->ranges_.emplace_back(0, num_docs);
  engine->frontier_ = num_docs;
  return engine;
}

Result<std::unique_ptr<CentralizedBm25Engine>>
CentralizedBm25Engine::BuildOverRanges(
    const corpus::DocumentStore& store,
    std::vector<std::pair<DocId, DocId>> peer_ranges,
    index::Bm25Params params, size_t num_threads) {
  if (peer_ranges.empty()) {
    return Status::InvalidArgument(
        "CentralizedBm25Engine: need >= 1 peer range");
  }
  HDK_RETURN_NOT_OK(corpus::ValidateDisjointRanges(peer_ranges, store.size()));
  auto engine = std::unique_ptr<CentralizedBm25Engine>(
      new CentralizedBm25Engine());
  engine->store_ = &store;
  engine->params_ = params;
  engine->pool_ = ThreadPool::MakeIfParallel(num_threads);
  for (const auto& [first, last] : peer_ranges) {
    HDK_RETURN_NOT_OK(engine->IndexRange(first, last));
    engine->frontier_ = std::max(engine->frontier_, last);
  }
  engine->ranges_ = std::move(peer_ranges);
  return engine;
}

Status CentralizedBm25Engine::IndexRange(DocId first, DocId last) {
  const size_t n = last - first;
  if (pool_ == nullptr || n < 2) {
    return index_.AddRange(*store_, first, last);
  }
  const size_t chunks = pool_->num_threads();
  std::vector<index::InvertedIndex> parts(chunks);
  std::vector<Status> statuses(chunks, Status::OK());
  ParallelChunks(pool_.get(), n,
                 [&](size_t begin, size_t end, size_t chunk) {
                   statuses[chunk] = parts[chunk].AddRange(
                       *store_, first + static_cast<DocId>(begin),
                       first + static_cast<DocId>(end));
                 });
  for (const Status& st : statuses) HDK_RETURN_NOT_OK(st);
  for (const index::InvertedIndex& part : parts) {
    index_.MergeDisjoint(part);
  }
  return Status::OK();
}

SearchResponse CentralizedBm25Engine::Search(std::span<const TermId> query,
                                             size_t k,
                                             const SearchOptions& /*options*/,
                                             PeerId /*origin*/) {
  index::Bm25Searcher searcher(index_, params_);
  SearchResponse response;
  response.results = searcher.Search(query, k);
  // No network: report the postings scanned (= what a distributed
  // single-term engine would transfer) and the terms that matched.
  response.cost.postings_fetched = searcher.RetrievalPostings(query);
  std::vector<TermId> terms(query.begin(), query.end());
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  for (TermId t : terms) {
    if (index_.DocumentFrequency(t) > 0) ++response.cost.keys_fetched;
  }
  return response;
}

Status CentralizedBm25Engine::ValidateEvents(
    const corpus::DocumentStore& store,
    std::span<const MembershipEvent> events) const {
  if (&store != store_) {
    return Status::InvalidArgument(
        "ApplyMembership: must use the store the engine was built on");
  }
  return ValidateMembershipEvents(events, ranges_.size(), frontier_,
                                  store.size());
}

Status CentralizedBm25Engine::ApplyMembership(
    const corpus::DocumentStore& store,
    std::span<const MembershipEvent> events) {
  HDK_RETURN_NOT_OK(ValidateEvents(store, events));
  return DispatchMembershipEvents(
      events,
      [&](const std::vector<DocRange>& wave) {
        for (const DocRange& range : wave) {
          HDK_RETURN_NOT_OK(IndexRange(range.first, range.second));
          ranges_.push_back(range);
          frontier_ = std::max(frontier_, range.second);
        }
        return Status::OK();
      },
      [&](PeerId peer) {
        const DocRange range = ranges_[peer];
        index_.RemoveRange(*store_, range.first, range.second);
        ranges_.erase(ranges_.begin() + peer);
        return Status::OK();
      });
}

std::vector<index::ScoredDoc> CentralizedBm25Engine::Rank(
    std::span<const TermId> query, size_t k) const {
  index::Bm25Searcher searcher(index_, params_);
  return searcher.Search(query, k);
}

uint64_t CentralizedBm25Engine::RetrievalPostings(
    std::span<const TermId> query) const {
  index::Bm25Searcher searcher(index_, params_);
  return searcher.RetrievalPostings(query);
}

}  // namespace hdk::engine
