#include "index/bm25.h"

#include <algorithm>
#include <cmath>

namespace hdk::index {

Bm25Scorer::Bm25Scorer(uint64_t num_docs, double avg_doc_len,
                       Bm25Params params)
    : num_docs_(num_docs),
      avg_doc_len_(std::max(avg_doc_len, 1.0)),
      params_(params) {}

double Bm25Scorer::Idf(Freq df) const {
  const double n = static_cast<double>(num_docs_);
  const double d = static_cast<double>(df);
  return std::log((n - d + 0.5) / (d + 0.5) + 1.0);
}

}  // namespace hdk::index
