// Per-thread dense score accumulation for disjunctive BM25 ranking.
//
// Every ranking backend — the HDK key ranking, the distributed
// single-term baseline and centralized BM25 — sums the BM25 contributions
// of a query's posting lists per document and keeps the k best. Doing
// that in a hash map costs a probe (and growth) per posting; here the
// scores live in a dense array indexed by DocId that is reused across
// queries:
//
//   * the array grows lazily to the largest doc id seen and is never
//     cleared wholesale: a touched list records the slots a query wrote,
//     and only those are reset when the query takes its results;
//   * each slot starts at +0.0 and receives its contributions with += in
//     list order, so the sums are bit-identical to the hash-map
//     accumulation they replace;
//   * selection is nth_element + sort of the kept k under BetterResult,
//     a total order, so the kept documents and their order are exactly
//     those of a TopK heap.
//
// One accumulator exists per thread (ForThread), so pool workers rank
// concurrently without sharing. Its memory is one double plus one byte per
// doc id up to the largest id the thread has ranked.
#ifndef HDKP2P_INDEX_SCORE_ACCUMULATOR_H_
#define HDKP2P_INDEX_SCORE_ACCUMULATOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "index/bm25.h"
#include "index/posting.h"
#include "index/topk.h"

namespace hdk::index {

class ScoreAccumulator {
 public:
  /// The calling thread's accumulator. It is empty between queries: a
  /// query adds its lists, then TakeTopK returns the results and resets.
  static ScoreAccumulator& ForThread();

  /// Adds the BM25 contribution of every posting of `list`, whose key
  /// has document frequency `df`. Every document of the list becomes a
  /// candidate, even one whose contribution is zero.
  void AddPostings(const PostingList& list, Freq df,
                   const Bm25Scorer& scorer) {
    const std::span<const Posting> postings = list.postings();
    if (postings.empty()) return;
    Reserve(postings.back().doc);  // lists are doc-id sorted
    // Score() gives a df-0 key no weight; a zero IDF does the same.
    const double idf = df == 0 ? 0.0 : scorer.Idf(df);
    for (const Posting& p : postings) {
      if (seen_[p.doc] == 0) {
        seen_[p.doc] = 1;
        touched_.push_back(p.doc);
      }
      scores_[p.doc] += scorer.ScoreWithIdf(idf, p.tf, p.doc_length);
    }
  }

  /// Returns the `k` best candidates, best first, and resets the
  /// accumulator for the next query.
  std::vector<ScoredDoc> TakeTopK(size_t k);

 private:
  void Reserve(DocId max_doc) {
    if (max_doc >= scores_.size()) {
      scores_.resize(static_cast<size_t>(max_doc) + 1, 0.0);
      seen_.resize(static_cast<size_t>(max_doc) + 1, 0);
    }
  }

  std::vector<double> scores_;
  std::vector<uint8_t> seen_;
  std::vector<DocId> touched_;
  std::vector<ScoredDoc> candidates_;
};

}  // namespace hdk::index

#endif  // HDKP2P_INDEX_SCORE_ACCUMULATOR_H_
