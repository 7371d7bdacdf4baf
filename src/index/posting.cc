#include "index/posting.h"

#include <algorithm>
#include <cassert>

namespace hdk::index {

PostingList::PostingList(std::vector<Posting> postings)
    : postings_(std::move(postings)) {
  std::sort(postings_.begin(), postings_.end(),
            [](const Posting& a, const Posting& b) { return a.doc < b.doc; });
  // Collapse duplicates by accumulating tf.
  size_t out = 0;
  for (size_t i = 0; i < postings_.size(); ++i) {
    if (out > 0 && postings_[out - 1].doc == postings_[i].doc) {
      postings_[out - 1].tf += postings_[i].tf;
    } else {
      postings_[out++] = postings_[i];
    }
  }
  postings_.resize(out);
}

void PostingList::Upsert(const Posting& p) {
  EnsureOwned();
  auto it = std::lower_bound(
      postings_.begin(), postings_.end(), p.doc,
      [](const Posting& a, DocId d) { return a.doc < d; });
  if (it != postings_.end() && it->doc == p.doc) {
    it->tf += p.tf;
    it->doc_length = p.doc_length;
  } else {
    postings_.insert(it, p);
  }
}

void PostingList::MergeSorted(std::span<const Posting> other) {
  // One reservation, elements moved into place (Posting is trivially
  // copyable, so "move" and "copy" coincide — the win over the old loop
  // is the single up-front reserve plus the steal paths of the callers).
  std::vector<Posting> merged;
  merged.reserve(postings_.size() + other.size());
  size_t i = 0, j = 0;
  while (i < postings_.size() && j < other.size()) {
    if (postings_[i].doc < other[j].doc) {
      merged.push_back(std::move(postings_[i++]));
    } else if (postings_[i].doc > other[j].doc) {
      merged.push_back(other[j++]);
    } else {
      Posting p = std::move(postings_[i++]);
      p.tf += other[j++].tf;
      merged.push_back(p);
    }
  }
  for (; i < postings_.size(); ++i) merged.push_back(std::move(postings_[i]));
  merged.insert(merged.end(), other.begin() + j, other.end());
  postings_ = std::move(merged);
}

void PostingList::Merge(const PostingList& other) {
  if (other.empty()) return;
  if (empty()) {
    const std::span<const Posting> view = other.postings();
    postings_.assign(view.begin(), view.end());
    view_ = {};
    return;
  }
  EnsureOwned();
  MergeSorted(other.postings());
}

void PostingList::MergeFrom(PostingList&& other) {
  if (other.empty()) return;
  if (empty()) {
    // Steal the vector when `other` owns one; a borrowed view must be
    // copied (stealing a span would tie this list to foreign memory the
    // caller expects to be done with).
    other.EnsureOwned();
    postings_ = std::move(other.postings_);
    view_ = {};
    return;
  }
  EnsureOwned();
  MergeSorted(other.postings());
  other.postings_.clear();
  other.view_ = {};
}

bool PostingList::Contains(DocId doc) const {
  const std::span<const Posting> view = postings();
  auto it = std::lower_bound(
      view.begin(), view.end(), doc,
      [](const Posting& a, DocId d) { return a.doc < d; });
  return it != view.end() && it->doc == doc;
}

}  // namespace hdk::index
