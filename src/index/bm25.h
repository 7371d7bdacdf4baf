// Okapi BM25 relevance scoring — "currently considered as one of the top
// performing relevance schemes" (paper Section 5); the reference ranking the
// HDK engine is compared against in Figure 7.
#ifndef HDKP2P_INDEX_BM25_H_
#define HDKP2P_INDEX_BM25_H_

#include <cstdint>

#include "common/types.h"

namespace hdk::index {

/// BM25 free parameters (standard Robertson/Sparck-Jones defaults).
struct Bm25Params {
  double k1 = 1.2;
  double b = 0.75;
};

/// Stateless BM25 scorer over global collection statistics.
class Bm25Scorer {
 public:
  /// \param num_docs    N, documents in the (global) collection.
  /// \param avg_doc_len average document length of the collection.
  Bm25Scorer(uint64_t num_docs, double avg_doc_len, Bm25Params params = {});

  /// IDF component:  ln( (N - df + 0.5) / (df + 0.5) + 1 )  (the
  /// "plus one" form, always positive; used by Lucene and others).
  double Idf(Freq df) const;

  /// Score contribution of one term occurrence profile.
  /// \param tf         term frequency in the document.
  /// \param df         document frequency of the term in the collection.
  /// \param doc_length document length in tokens.
  double Score(uint32_t tf, Freq df, uint32_t doc_length) const {
    return df == 0 ? 0.0 : ScoreWithIdf(Idf(df), tf, doc_length);
  }

  /// Score() with the term's IDF supplied by the caller: a posting-list
  /// scan computes Idf(df) once per list instead of once per posting.
  /// Bit-identical to Score() for idf == Idf(df); idf == 0 (a df-0 key)
  /// scores 0 like Score() does.
  double ScoreWithIdf(double idf, uint32_t tf, uint32_t doc_length) const {
    if (tf == 0) return 0.0;
    const double tfd = static_cast<double>(tf);
    const double norm =
        params_.k1 * (1.0 - params_.b +
                      params_.b * static_cast<double>(doc_length) /
                          avg_doc_len_);
    return idf * (tfd * (params_.k1 + 1.0)) / (tfd + norm);
  }

  uint64_t num_docs() const { return num_docs_; }
  double avg_doc_len() const { return avg_doc_len_; }
  const Bm25Params& params() const { return params_; }

 private:
  uint64_t num_docs_;
  double avg_doc_len_;
  Bm25Params params_;
};

}  // namespace hdk::index

#endif  // HDKP2P_INDEX_BM25_H_
