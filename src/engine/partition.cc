#include "engine/partition.h"

namespace hdk::engine {

std::vector<DocRange> SplitEvenly(uint64_t num_docs, uint32_t num_peers) {
  std::vector<DocRange> ranges;
  ranges.reserve(num_peers);
  uint64_t base = num_peers == 0 ? 0 : num_docs / num_peers;
  uint64_t extra = num_peers == 0 ? 0 : num_docs % num_peers;
  uint64_t start = 0;
  for (uint32_t p = 0; p < num_peers; ++p) {
    uint64_t len = base + (p < extra ? 1 : 0);
    ranges.emplace_back(static_cast<DocId>(start),
                        static_cast<DocId>(start + len));
    start += len;
  }
  return ranges;
}

std::vector<DocRange> JoinRanges(DocId first, uint32_t num_new_peers,
                                 uint32_t docs_per_peer) {
  std::vector<DocRange> ranges;
  ranges.reserve(num_new_peers);
  DocId start = first;
  for (uint32_t p = 0; p < num_new_peers; ++p) {
    ranges.emplace_back(start, start + docs_per_peer);
    start += docs_per_peer;
  }
  return ranges;
}

Status ValidateJoinRange(const DocRange& range, DocId frontier,
                         uint64_t store_size) {
  const auto& [first, last] = range;
  if (first != frontier || last < first || last > store_size) {
    return Status::OutOfRange(
        "joining ranges must continue contiguously from the indexed "
        "document frontier");
  }
  return Status::OK();
}

Status ValidateJoinRanges(DocId frontier,
                          const std::vector<DocRange>& new_ranges,
                          uint64_t store_size) {
  if (new_ranges.empty()) {
    return Status::InvalidArgument("AddPeers: need >= 1 joining peer");
  }
  for (const DocRange& range : new_ranges) {
    HDK_RETURN_NOT_OK(ValidateJoinRange(range, frontier, store_size));
    frontier = range.second;
  }
  return Status::OK();
}

}  // namespace hdk::engine
