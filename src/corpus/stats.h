// Collection-level term statistics (paper Table 1 and the inputs to the
// Zipf analysis of Section 4).
#ifndef HDKP2P_CORPUS_STATS_H_
#define HDKP2P_CORPUS_STATS_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/types.h"
#include "corpus/document.h"

namespace hdk::corpus {

/// Term frequency statistics of a document collection.
class CollectionStats {
 public:
  /// Computes statistics over the first `num_docs` documents of `store`
  /// (0 = all of it). The prefix form is what the engines use when the
  /// store has grown past the indexed collection.
  explicit CollectionStats(const DocumentStore& store,
                           uint64_t num_docs = 0);

  /// Computes statistics over the union of the given disjoint [first,
  /// last) document ranges — the collection a churned network covers once
  /// departed peers have punched holes into the indexed prefix.
  CollectionStats(const DocumentStore& store,
                  std::span<const std::pair<DocId, DocId>> ranges);

  /// Restores previously computed statistics verbatim (snapshot load, see
  /// engine/engine_snapshot) — no document scan.
  CollectionStats(uint64_t num_documents, uint64_t total_tokens,
                  uint64_t vocabulary_size, std::vector<Freq> cf,
                  std::vector<Freq> df, std::vector<Freq> rank_freq)
      : num_documents_(num_documents),
        total_tokens_(total_tokens),
        vocabulary_size_(vocabulary_size),
        cf_(std::move(cf)),
        df_(std::move(df)),
        rank_freq_(std::move(rank_freq)) {}

  /// Folds the documents of the given disjoint [first, last) ranges in
  /// (a join) or out (a departure; they must be part of the collection).
  /// Only those documents are scanned, and the result equals the ranges
  /// constructor over the new range set, array for array.
  void AddRanges(const DocumentStore& store,
                 std::span<const std::pair<DocId, DocId>> ranges) {
    Apply(store, ranges, +1);
  }
  void RemoveRanges(const DocumentStore& store,
                    std::span<const std::pair<DocId, DocId>> ranges) {
    Apply(store, ranges, -1);
  }

  /// Number of documents M.
  uint64_t num_documents() const { return num_documents_; }

  /// Total number of token occurrences (sample size D).
  uint64_t total_tokens() const { return total_tokens_; }

  /// Average document length in tokens.
  double average_document_length() const {
    return num_documents_ == 0
               ? 0.0
               : static_cast<double>(total_tokens_) /
                     static_cast<double>(num_documents_);
  }

  /// Number of distinct terms observed (|T|).
  uint64_t vocabulary_size() const { return vocabulary_size_; }

  /// Collection frequency f_D(t) of a term (0 for unseen ids).
  Freq CollectionFrequency(TermId t) const {
    return t < cf_.size() ? cf_[t] : 0;
  }

  /// Document frequency df_D(t) of a term (0 for unseen ids).
  Freq DocumentFrequency(TermId t) const {
    return t < df_.size() ? df_[t] : 0;
  }

  /// Raw frequency arrays (indexed by TermId; may contain zeros).
  std::span<const Freq> cf() const { return cf_; }
  std::span<const Freq> df() const { return df_; }

  /// Collection frequencies sorted descending: entry r-1 is the frequency
  /// of the rank-r term (the empirical Zipf curve; zeros excluded).
  const std::vector<Freq>& RankFrequencies() const { return rank_freq_; }

  /// Term ids whose collection frequency exceeds `ff` (the paper's very
  /// frequent terms removed from the key vocabulary, threshold Ff).
  std::vector<TermId> VeryFrequentTerms(Freq ff) const;

  /// Number of hapax legomena (cf == 1).
  uint64_t NumHapax() const;

 private:
  /// Adds (`sign` +1) or subtracts (-1) the ranges' documents, then
  /// re-derives the arrays' length, the vocabulary size and the rank list
  /// from `cf_`.
  void Apply(const DocumentStore& store,
             std::span<const std::pair<DocId, DocId>> ranges, int sign);

  uint64_t num_documents_ = 0;
  uint64_t total_tokens_ = 0;
  uint64_t vocabulary_size_ = 0;
  std::vector<Freq> cf_;
  std::vector<Freq> df_;
  std::vector<Freq> rank_freq_;
};

}  // namespace hdk::corpus

#endif  // HDKP2P_CORPUS_STATS_H_
