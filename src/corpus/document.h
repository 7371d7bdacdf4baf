// Documents and the in-memory document store.
#ifndef HDKP2P_CORPUS_DOCUMENT_H_
#define HDKP2P_CORPUS_DOCUMENT_H_

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace hdk::corpus {

/// A document after analysis: a sequence of term ids (stop words removed,
/// stems applied / synthetic terms generated).
struct Document {
  DocId id = kInvalidDoc;
  std::vector<TermId> tokens;

  size_t length() const { return tokens.size(); }
};

/// Append-only store of analyzed documents, indexed densely by DocId.
///
/// The global collection D of the paper; peers hold disjoint DocId ranges
/// (random distribution of an i.i.d. synthetic collection is equivalent to
/// contiguous ranges).
class DocumentStore {
 public:
  DocumentStore() = default;

  /// Appends a document; assigns and returns its DocId.
  DocId Add(std::vector<TermId> tokens);

  /// Number of documents (paper's M).
  size_t size() const { return docs_.size(); }
  bool empty() const { return docs_.empty(); }

  /// Total number of token occurrences across documents (paper's sample
  /// size D).
  uint64_t TotalTokens() const { return total_tokens_; }

  /// Access by id. Requires id < size().
  const Document& Get(DocId id) const { return docs_[id]; }
  std::span<const TermId> Tokens(DocId id) const { return docs_[id].tokens; }

  /// Iteration support.
  const std::vector<Document>& docs() const { return docs_; }

 private:
  std::vector<Document> docs_;
  uint64_t total_tokens_ = 0;
};

/// A peer's contiguous [first, last) document range.
using DocRange = std::pair<DocId, DocId>;

/// The peer-range rule of every build: ranges must be pairwise disjoint
/// (a contribution is derived from its contributor's range, and an
/// overlap would double-index shared documents and corrupt later
/// departures) and stay within the first `num_docs` documents.
Status ValidateDisjointRanges(const std::vector<DocRange>& ranges,
                              uint64_t num_docs);

}  // namespace hdk::corpus

#endif  // HDKP2P_CORPUS_DOCUMENT_H_
