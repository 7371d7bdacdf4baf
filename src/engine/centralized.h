// CentralizedBm25Engine — the centralized single-term reference engine
// with BM25 ranking (the paper's Terrier stand-in for Figure 7), behind
// the unified SearchEngine interface. It has no network: num_peers() is 1,
// every QueryCost network counter stays 0, and postings_fetched reports
// the postings SCANNED (the sum of the query terms' posting-list lengths —
// exactly what a distributed single-term engine would have to transfer,
// the paper's naive-baseline cost metric). Membership events address
// LOGICAL peers (the document ranges the engine was built with): joins
// append their ranges to the index, departures drop theirs from it
// (InvertedIndex::RemoveRange), so the reference keeps mirroring exactly
// the churned collection.
#ifndef HDKP2P_ENGINE_CENTRALIZED_H_
#define HDKP2P_ENGINE_CENTRALIZED_H_

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "corpus/document.h"
#include "engine/search_engine.h"
#include "index/inverted_index.h"
#include "index/searcher.h"

namespace hdk::engine {

/// A classic centralized IR engine over the full collection.
class CentralizedBm25Engine : public SearchEngine {
 public:
  /// Indexes the first `num_docs` documents of `store` (0 = all of it) as
  /// one logical peer. `num_threads` drives the chunked parallel index
  /// build and the SearchBatch fan-out (0 = hardware concurrency, 1 =
  /// exact serial path); the index and all results are identical for
  /// every value.
  static Result<std::unique_ptr<CentralizedBm25Engine>> Build(
      const corpus::DocumentStore& store,
      index::Bm25Params params = {}, DocId num_docs = 0,
      size_t num_threads = 0);

  /// Indexes the documents covered by `peer_ranges`, remembering the
  /// ranges as logical peers so membership events can address them.
  static Result<std::unique_ptr<CentralizedBm25Engine>> BuildOverRanges(
      const corpus::DocumentStore& store,
      std::vector<std::pair<DocId, DocId>> peer_ranges,
      index::Bm25Params params = {}, size_t num_threads = 0);

  // -- SearchEngine ----------------------------------------------------

  std::string_view name() const override { return "centralized"; }

  /// Top-k BM25 retrieval (disjunctive). `origin` is ignored — there are
  /// no peers — and so are the overload options: with no network there is
  /// no simulated clock to budget or hedge against.
  SearchResponse Search(std::span<const TermId> query, size_t k,
                        const SearchOptions& options, PeerId origin) override;
  using SearchEngine::Search;
  using SearchEngine::SearchBatch;

  /// Joins index the new document ranges, departures drop the departed
  /// logical peer's range from the index: the centralized reference keeps
  /// mirroring the churned collection posting for posting.
  Status ApplyMembership(const corpus::DocumentStore& store,
                         std::span<const MembershipEvent> events) override;
  using SearchEngine::ApplyMembership;

  size_t num_peers() const override { return 1; }
  uint64_t num_documents() const override { return index_.num_documents(); }
  double StoredPostingsPerPeer() const override {
    return static_cast<double>(index_.TotalPostings());
  }
  double InsertedPostingsPerPeer() const override {
    return static_cast<double>(index_.TotalPostings());
  }

  // -- reference-specific helpers --------------------------------------

  /// Rank-only search (no cost accounting) for overlap comparisons.
  std::vector<index::ScoredDoc> Rank(std::span<const TermId> query,
                                     size_t k) const;

  /// Posting volume a *distributed* single-term engine would transfer for
  /// this query (Σ posting-list lengths of the query terms).
  uint64_t RetrievalPostings(std::span<const TermId> query) const;

  const index::InvertedIndex& index() const { return index_; }

  /// The logical peer ranges membership events address.
  const std::vector<DocRange>& peer_ranges() const { return ranges_; }

 protected:
  ThreadPool* batch_pool() const override { return pool_.get(); }

 private:
  CentralizedBm25Engine() = default;

  Status ValidateEvents(const corpus::DocumentStore& store,
                        std::span<const MembershipEvent> events) const;

  /// Indexes [first, last): chunked across the pool, merged in chunk
  /// order — identical to a serial AddRange.
  Status IndexRange(DocId first, DocId last);

  const corpus::DocumentStore* store_ = nullptr;
  std::unique_ptr<ThreadPool> pool_;  // nullptr = serial
  index::InvertedIndex index_;
  index::Bm25Params params_;
  /// Logical peers; `frontier_` is one past the highest ever indexed
  /// document (departed ranges are not re-used).
  std::vector<DocRange> ranges_;
  DocId frontier_ = 0;
};

}  // namespace hdk::engine

#endif  // HDKP2P_ENGINE_CENTRALIZED_H_
