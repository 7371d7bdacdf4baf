#include "index/score_accumulator.h"

#include <algorithm>

namespace hdk::index {

ScoreAccumulator& ScoreAccumulator::ForThread() {
  thread_local ScoreAccumulator accumulator;
  return accumulator;
}

std::vector<ScoredDoc> ScoreAccumulator::TakeTopK(size_t k) {
  candidates_.clear();
  for (const DocId doc : touched_) {
    candidates_.push_back(ScoredDoc{doc, scores_[doc]});
    scores_[doc] = 0.0;
    seen_[doc] = 0;
  }
  touched_.clear();
  const size_t keep = std::min(k, candidates_.size());
  const auto kept_end = candidates_.begin() + static_cast<ptrdiff_t>(keep);
  if (keep < candidates_.size()) {
    std::nth_element(candidates_.begin(), kept_end, candidates_.end(),
                     BetterResult);
  }
  std::sort(candidates_.begin(), kept_end, BetterResult);
  return std::vector<ScoredDoc>(candidates_.begin(), kept_end);
}

}  // namespace hdk::index
