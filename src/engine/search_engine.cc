#include "engine/search_engine.h"

namespace hdk::engine {

Status SearchEngine::DispatchMembershipEvents(
    std::span<const MembershipEvent> events,
    const std::function<Status(const std::vector<DocRange>&)>& join_wave,
    const std::function<Status(PeerId)>& departure) {
  size_t i = 0;
  while (i < events.size()) {
    if (events[i].kind == MembershipEvent::Kind::kJoin) {
      std::vector<DocRange> wave;
      while (i < events.size() &&
             events[i].kind == MembershipEvent::Kind::kJoin) {
        wave.push_back(events[i].range);
        ++i;
      }
      HDK_RETURN_NOT_OK(join_wave(wave));
    } else {
      HDK_RETURN_NOT_OK(departure(events[i].peer));
      ++i;
    }
  }
  return Status::OK();
}

BatchResponse SearchEngine::SearchBatch(
    std::span<const corpus::Query> queries, size_t k,
    const SearchOptions& options) {
  BatchResponse batch;
  const size_t n = queries.size();
  batch.responses.resize(n);
  if (n == 0) return batch;

  // Origins are assigned serially in query order, so the peer rotation is
  // independent of how the queries are later scheduled onto threads.
  std::vector<PeerId> origins(n);
  for (size_t i = 0; i < n; ++i) origins[i] = AcquireOrigin();

  ThreadPool* pool = batch_pool();
  const size_t chunks = pool != nullptr ? pool->num_threads() : 1;
  std::vector<QueryCost> chunk_cost(chunks);
  ParallelChunks(pool, n, [&](size_t begin, size_t end, size_t chunk) {
    QueryCost& cost = chunk_cost[chunk];
    for (size_t i = begin; i < end; ++i) {
      batch.responses[i] = Search(queries[i].terms, k, options, origins[i]);
      cost += batch.responses[i].cost;
    }
  });
  for (const QueryCost& cost : chunk_cost) batch.total += cost;
  return batch;
}

}  // namespace hdk::engine
