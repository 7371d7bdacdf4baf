// The unified result type of one query execution: ranked documents plus
// the QueryCost accounting. Every retrieval backend (HDK P2P, distributed
// single-term, centralized BM25) returns this shape, which is what lets the
// engine layer expose them behind one SearchEngine interface.
#ifndef HDKP2P_INDEX_SEARCH_RESULT_H_
#define HDKP2P_INDEX_SEARCH_RESULT_H_

#include <vector>

#include "common/query_cost.h"
#include "index/topk.h"

namespace hdk::index {

/// Ranked results (best first) plus cost counters.
struct SearchResponse {
  std::vector<ScoredDoc> results;
  QueryCost cost;
  /// True when at least one lattice key (or query term) was unreachable
  /// after retries and replica failover, or the query's deadline budget
  /// ran out mid-retrieval — the results cover only the keys fetched in
  /// time (cost.keys_unreachable counts the missing ones). Always false
  /// on a healthy network with no deadline.
  bool degraded = false;
  /// Always false: no engine sheds load. Kept because the hdkbench
  /// harness counts shed responses as failed operations.
  bool shed = false;
};

}  // namespace hdk::index

#endif  // HDKP2P_INDEX_SEARCH_RESULT_H_
