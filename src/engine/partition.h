// Document-partitioning helpers shared by every engine backend: how the
// global collection is split across peers at build time and how joining
// peers pick up the document delta during incremental network growth.
#ifndef HDKP2P_ENGINE_PARTITION_H_
#define HDKP2P_ENGINE_PARTITION_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "corpus/document.h"

namespace hdk::engine {

using corpus::DocRange;

/// Splits `num_docs` documents into `num_peers` contiguous, near-equal
/// [first, last) ranges (peer i gets the i-th range).
std::vector<DocRange> SplitEvenly(uint64_t num_docs, uint32_t num_peers);

/// Ranges for `num_new_peers` joining peers, each contributing
/// `docs_per_peer` documents, starting at document `first` — the shape of
/// the paper's evolution experiment ("4 more peers join, 5,000 documents
/// each"). Feeds SearchEngine::AddPeers.
std::vector<DocRange> JoinRanges(DocId first, uint32_t num_new_peers,
                                 uint32_t docs_per_peer);

/// The per-range join precondition: a joining range must continue
/// contiguously from `frontier` (one past the highest ever indexed
/// document) and stay within the store. The one place the contiguity
/// rule lives — shared by ValidateJoinRanges and the membership-event
/// validation.
Status ValidateJoinRange(const DocRange& range, DocId frontier,
                         uint64_t store_size);

/// Shared AddPeers precondition: `new_ranges` must be non-empty and each
/// must satisfy ValidateJoinRange against the running frontier. Every
/// engine backend enforces this.
Status ValidateJoinRanges(DocId frontier,
                          const std::vector<DocRange>& new_ranges,
                          uint64_t store_size);

}  // namespace hdk::engine

#endif  // HDKP2P_ENGINE_PARTITION_H_
