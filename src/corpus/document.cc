#include "corpus/document.h"

#include <algorithm>

namespace hdk::corpus {

DocId DocumentStore::Add(std::vector<TermId> tokens) {
  DocId id = static_cast<DocId>(docs_.size());
  total_tokens_ += tokens.size();
  docs_.push_back(Document{id, std::move(tokens)});
  return id;
}

Status ValidateDisjointRanges(const std::vector<DocRange>& ranges,
                              uint64_t num_docs) {
  std::vector<DocRange> sorted = ranges;
  std::sort(sorted.begin(), sorted.end());
  DocId covered = 0;  // one past the highest document claimed so far
  for (const auto& [first, last] : sorted) {
    if (first > last || last > num_docs) {
      return Status::OutOfRange("invalid peer document range");
    }
    if (first == last) continue;  // empty ranges overlap nothing
    if (first < covered) {
      return Status::InvalidArgument("peer document ranges overlap");
    }
    covered = last;
  }
  return Status::OK();
}

}  // namespace hdk::corpus
