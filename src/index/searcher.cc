#include "index/searcher.h"

#include <algorithm>

#include "index/score_accumulator.h"

namespace hdk::index {

Bm25Searcher::Bm25Searcher(const InvertedIndex& idx, Bm25Params params)
    : idx_(idx), params_(params) {}

std::vector<ScoredDoc> Bm25Searcher::Search(std::span<const TermId> query,
                                            size_t k) const {
  // Deduplicate query terms.
  std::vector<TermId> terms(query.begin(), query.end());
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());

  const Bm25Scorer scorer(idx_.num_documents(),
                          idx_.average_document_length(), params_);
  ScoreAccumulator& scores = ScoreAccumulator::ForThread();
  for (TermId t : terms) {
    const PostingList& pl = idx_.Postings(t);
    scores.AddPostings(pl, pl.size(), scorer);
  }
  return scores.TakeTopK(k);
}

uint64_t Bm25Searcher::RetrievalPostings(
    std::span<const TermId> query) const {
  std::vector<TermId> terms(query.begin(), query.end());
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  uint64_t total = 0;
  for (TermId t : terms) {
    total += idx_.Postings(t).size();
  }
  return total;
}

}  // namespace hdk::index
