#include "corpus/stats.h"

#include <algorithm>

namespace hdk::corpus {

CollectionStats::CollectionStats(const DocumentStore& store,
                                 uint64_t num_docs) {
  if (num_docs == 0 || num_docs > store.size()) num_docs = store.size();
  std::pair<DocId, DocId> prefix{0, static_cast<DocId>(num_docs)};
  Apply(store, {&prefix, 1}, +1);
}

CollectionStats::CollectionStats(
    const DocumentStore& store,
    std::span<const std::pair<DocId, DocId>> ranges) {
  Apply(store, ranges, +1);
}

void CollectionStats::Apply(const DocumentStore& store,
                            std::span<const std::pair<DocId, DocId>> ranges,
                            int sign) {
  std::vector<TermId> seen;  // distinct terms of the current document
  for (const auto& [first, last] : ranges) {
    for (DocId d = first; d < last && d < store.size(); ++d) {
      const auto& doc = store.docs()[d];
      num_documents_ += sign;
      total_tokens_ += sign * static_cast<int64_t>(doc.tokens.size());
      seen.assign(doc.tokens.begin(), doc.tokens.end());
      std::sort(seen.begin(), seen.end());
      if (!seen.empty() && seen.back() >= cf_.size()) {
        cf_.resize(static_cast<size_t>(seen.back()) + 1, 0);
        df_.resize(cf_.size(), 0);
      }
      for (size_t i = 0; i < seen.size(); ++i) {
        cf_[seen[i]] += sign;
        if (i == 0 || seen[i] != seen[i - 1]) df_[seen[i]] += sign;
      }
    }
  }

  // The arrays span the largest term id present — one zero slot when the
  // documents hold no tokens at all, none for an empty collection.
  size_t size = cf_.size();
  while (size > 0 && cf_[size - 1] == 0) --size;
  if (size == 0 && num_documents_ > 0) size = 1;
  cf_.resize(size, 0);
  df_.resize(size, 0);

  rank_freq_.clear();
  for (Freq f : cf_) {
    if (f > 0) rank_freq_.push_back(f);
  }
  vocabulary_size_ = rank_freq_.size();
  std::sort(rank_freq_.begin(), rank_freq_.end(), std::greater<Freq>());
}

std::vector<TermId> CollectionStats::VeryFrequentTerms(Freq ff) const {
  std::vector<TermId> out;
  for (TermId t = 0; t < cf_.size(); ++t) {
    if (cf_[t] > ff) out.push_back(t);
  }
  return out;
}

uint64_t CollectionStats::NumHapax() const {
  uint64_t n = 0;
  for (Freq f : cf_) {
    if (f == 1) ++n;
  }
  return n;
}

}  // namespace hdk::corpus
