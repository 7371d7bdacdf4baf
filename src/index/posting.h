// Postings and posting lists.
//
// A posting associates a document with the within-document statistics the
// ranking needs. Posting lists are kept sorted by document id; the P2P
// global index additionally supports score-based truncation to the
// top-DFmax entries for non-discriminative keys.
#ifndef HDKP2P_INDEX_POSTING_H_
#define HDKP2P_INDEX_POSTING_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/types.h"

namespace hdk::index {

/// One document entry of a posting list.
struct Posting {
  DocId doc = kInvalidDoc;
  /// Term (or key co-occurrence) frequency inside the document.
  uint32_t tf = 0;
  /// Length of the document in tokens (carried so that remote peers can
  /// compute length-normalized relevance scores without fetching the
  /// document — the basis of the distributed ranking).
  uint32_t doc_length = 0;

  bool operator==(const Posting&) const = default;
};

/// A posting list sorted by ascending document id, without duplicates.
///
/// A list either owns its postings (the default) or borrows them as a
/// read-only span of someone else's memory — the snapshot loader hands
/// out views straight into the mmapped file, so restoring millions of
/// lists costs zero allocations and zero copies. Reads are oblivious to
/// the representation; every mutating operation first materializes the
/// borrowed span into an owned vector (copy-on-write), so a restored
/// engine behaves identically under Grow/churn. The borrowed memory must
/// outlive the list (the engine keeps its snapshot mapping alive).
class PostingList {
 public:
  PostingList() = default;
  explicit PostingList(std::vector<Posting> postings);

  /// Borrowing constructor: `view` must already be doc-id sorted and
  /// duplicate-free (it was written from an owned list) and must stay
  /// valid until the list is destroyed or first mutated.
  static PostingList Borrowed(std::span<const Posting> view) {
    PostingList list;
    list.view_ = view;
    return list;
  }

  /// Inserts or merges a posting (tf accumulates if the doc is present).
  void Upsert(const Posting& p);

  /// Merges another posting list into this one (set union; tf accumulates
  /// on duplicate documents).
  void Merge(const PostingList& other);

  /// Merge overload consuming `other`: when this list is empty the
  /// backing vector is stolen outright, otherwise the merge loop moves
  /// postings out of `other`. The global index merges each new
  /// contribution into its key's merged list through this path.
  void MergeFrom(PostingList&& other);

  /// Keeps only the `limit` postings with the highest `score(posting)`,
  /// then restores doc-id order. Used for top-DFmax NDK truncation.
  template <typename ScoreFn>
  void TruncateTopBy(size_t limit, ScoreFn score);

  /// Removes every posting whose document id lies in [first, last) —
  /// the churn path that drops a departed peer's documents. The list is
  /// doc-id sorted, so the removed range is one contiguous block found by
  /// binary search. Returns the number of postings removed.
  size_t EraseDocRange(DocId first, DocId last) {
    EnsureOwned();
    auto doc_less = [](const Posting& p, DocId d) { return p.doc < d; };
    auto lo =
        std::lower_bound(postings_.begin(), postings_.end(), first, doc_less);
    auto hi = std::lower_bound(lo, postings_.end(), last, doc_less);
    const size_t removed = static_cast<size_t>(hi - lo);
    postings_.erase(lo, hi);
    return removed;
  }

  /// Number of postings (document frequency of the associated key).
  size_t size() const { return postings().size(); }
  bool empty() const { return postings().empty(); }

  /// True if `doc` is present.
  bool Contains(DocId doc) const;

  std::span<const Posting> postings() const {
    return view_.data() != nullptr ? view_
                                   : std::span<const Posting>(postings_);
  }
  const Posting& operator[](size_t i) const { return postings()[i]; }

  /// Content equality, regardless of owned/borrowed representation.
  bool operator==(const PostingList& other) const {
    const std::span<const Posting> a = postings();
    const std::span<const Posting> b = other.postings();
    return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  /// Two-pointer union of the doc-id-sorted `postings_` and `other` into
  /// a freshly reserved vector (one allocation, elements moved).
  void MergeSorted(std::span<const Posting> other);

  /// Copies a borrowed view into the owned vector; precedes every
  /// mutation. No-op for owned lists.
  void EnsureOwned() {
    if (view_.data() != nullptr) {
      postings_.assign(view_.begin(), view_.end());
      view_ = {};
    }
  }

  /// Invariant: when `view_.data()` is non-null the list is borrowed and
  /// `postings_` is empty; otherwise `postings_` is authoritative.
  std::vector<Posting> postings_;
  std::span<const Posting> view_;
};

// --- implementation of the template member ---------------------------------

template <typename ScoreFn>
void PostingList::TruncateTopBy(size_t limit, ScoreFn score) {
  if (size() <= limit) return;
  EnsureOwned();
  std::vector<std::pair<double, size_t>> ranked;
  ranked.reserve(postings_.size());
  for (size_t i = 0; i < postings_.size(); ++i) {
    ranked.emplace_back(score(postings_[i]), i);
  }
  // Highest score first; stable tie-break on document id for determinism.
  std::partial_sort(ranked.begin(), ranked.begin() + limit, ranked.end(),
                    [](const auto& a, const auto& b) {
                      if (a.first != b.first) return a.first > b.first;
                      return a.second < b.second;
                    });
  std::vector<Posting> kept;
  kept.reserve(limit);
  for (size_t i = 0; i < limit; ++i) {
    kept.push_back(postings_[ranked[i].second]);
  }
  std::sort(kept.begin(), kept.end(),
            [](const Posting& a, const Posting& b) { return a.doc < b.doc; });
  postings_ = std::move(kept);
}

}  // namespace hdk::index

#endif  // HDKP2P_INDEX_POSTING_H_
