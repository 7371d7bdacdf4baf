// Query-side key mapping (paper Section 3.2): a query is treated as a
// one-document collection and mapped onto the lattice of its term subsets
// of size <= s_max; subsets present in the global index (as HDKs or NDKs)
// are fetched, merged by set union, and ranked.
//
// The subsumption properties prune the lattice walk:
//   * a superset of a matched HDK is discriminative but redundant — it is
//     never stored, so probing it is pointless;
//   * a superset of a subset that is absent from the index is itself absent
//     (absence means df == 0, a very frequent member term, or redundancy —
//     in all three cases supersets cannot be index entries).
#ifndef HDKP2P_HDK_QUERY_LATTICE_H_
#define HDKP2P_HDK_QUERY_LATTICE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/function_ref.h"
#include "common/types.h"
#include "hdk/key.h"
#include "index/bm25.h"
#include "index/posting.h"
#include "index/topk.h"

namespace hdk::hdk {

/// Number of term subsets a query of `query_size` distinct terms maps to
/// (paper Section 4.2): 2^q - 1 when q <= s_max, otherwise
/// sum_{i=1..s_max} C(q, i).
uint64_t NumQueryKeys(uint32_t query_size, uint32_t s_max);

/// All subsets of the (deduplicated) query terms with 1 <= size <= s_max,
/// ordered by increasing size (then lexicographically). PlanRetrieval
/// walks the same order without materializing it; this is its reference.
std::vector<TermKey> EnumerateQuerySubsets(std::span<const TermId> query,
                                           uint32_t s_max);

/// Outcome of probing the global index for one key.
struct ProbeOutcome {
  bool is_hdk = false;
};

/// Index probe: returns the key's classification if the key is stored,
/// std::nullopt otherwise. Non-owning: the callable must outlive the
/// PlanRetrieval call it is passed to.
using ProbeRef = FunctionRef<std::optional<ProbeOutcome>(const TermKey& key)>;

/// The set of keys a query retrieval fetches, with probe accounting.
struct RetrievalPlan {
  /// Keys found in the index whose posting lists are fetched.
  std::vector<TermKey> fetched;
  /// Index lookups actually issued.
  uint64_t probes = 0;
  /// Lattice nodes skipped by subsumption pruning.
  uint64_t pruned = 0;
};

/// Walks the query lattice with subsumption pruning, probing subsets in
/// EnumerateQuerySubsets order. The walk keeps its state in a 4 KB stack
/// arena: besides `fetched` it allocates only for a query that outgrows
/// it (hundreds of terms, or of absent and HDK subsets).
RetrievalPlan PlanRetrieval(std::span<const TermId> query, uint32_t s_max,
                            ProbeRef probe);

/// A fetched key with its global statistics and (possibly truncated)
/// posting list, as returned by the global index.
struct FetchedKey {
  TermKey key;
  Freq global_df = 0;
  bool is_hdk = false;
  const index::PostingList* postings = nullptr;
};

/// Distributed content-based ranking: merges the fetched posting lists
/// (set union) and scores each candidate document by summing BM25-style
/// key contributions computed purely from data carried in postings
/// (tf, doc_length) plus the key's global df — no document access needed.
/// Multi-term keys naturally weigh more through their lower df.
/// Accumulates in the calling thread's index::ScoreAccumulator.
std::vector<index::ScoredDoc> RankFetchedKeys(
    std::span<const FetchedKey> fetched, uint64_t collection_size,
    double avg_doc_length, size_t k, index::Bm25Params params = {});

}  // namespace hdk::hdk

#endif  // HDKP2P_HDK_QUERY_LATTICE_H_
