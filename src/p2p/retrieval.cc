#include "p2p/retrieval.h"

namespace hdk::p2p {

HdkRetriever::HdkRetriever(const DistributedGlobalIndex* global,
                           const HdkParams& params, uint64_t collection_size,
                           double avg_doc_length,
                           net::TrafficRecorder* traffic)
    : global_(global),
      params_(params),
      collection_size_(collection_size),
      avg_doc_length_(avg_doc_length),
      traffic_(traffic) {}

index::SearchResponse HdkRetriever::Search(PeerId origin,
                                           std::span<const TermId> query,
                                           size_t k,
                                           const SearchOptions& options) const {
  index::SearchResponse exec;
  // Tally only the traffic THIS thread records: queries of a parallel
  // batch run concurrently against the shared recorder.
  const net::ScopedTally tally(traffic_);

  // The query-wide simulated-time budget every fetch leg charges.
  // Unlimited (deadline_ticks == 0) never binds.
  DeadlineBudget budget;
  if (options.deadline_ticks > 0) budget.remaining = options.deadline_ticks;
  DistributedGlobalIndex::FetchOptions fetch_options;
  fetch_options.hedge_delay_ticks = options.hedge_delay_ticks;
  fetch_options.budget = &budget;
  bool deadline_hit = false;

  // Reused across this thread's queries: a query's fetched keys are
  // dead once it is ranked, so steady-state queries never regrow it.
  thread_local std::vector<hdk::FetchedKey> fetched;
  fetched.clear();
  hdk::RetrievalPlan plan = hdk::PlanRetrieval(
      query, params_.s_max, [&](const hdk::TermKey& key)
          -> std::optional<hdk::ProbeOutcome> {
        if (budget.exhausted()) {
          // The deadline passed before this key could be probed: answer
          // from what is already fetched — a partial, explicitly
          // degraded top-k instead of retrying forever.
          deadline_hit = true;
          ++exec.cost.keys_unreachable;
          return std::nullopt;
        }
        const DistributedGlobalIndex::FetchResult fetch =
            global_->FetchFromResilient(origin, key, fetch_options);
        exec.cost.retries += fetch.retries;
        exec.cost.failovers += fetch.failovers;
        exec.cost.latency_ticks += fetch.latency_ticks;
        exec.cost.hedges_fired += fetch.hedges_fired;
        exec.cost.hedge_wins += fetch.hedge_wins;
        exec.cost.breaker_short_circuits += fetch.breaker_short_circuits;
        if (fetch.deadline_exhausted) deadline_hit = true;
        if (fetch.unreachable) {
          // Every holder of the key failed: degrade — the query answers
          // from the surviving lattice keys. The planner treats the key
          // as absent, which also skips its superset subtree (those keys
          // may exist on reachable peers; skipping them keeps the
          // degraded query cheap rather than exhaustive).
          exec.degraded = true;
          ++exec.cost.keys_unreachable;
          return std::nullopt;
        }
        const hdk::KeyEntry* entry = fetch.entry;
        if (entry == nullptr) return std::nullopt;
        fetched.push_back(hdk::FetchedKey{key, entry->global_df,
                                          entry->is_hdk, &entry->postings});
        exec.cost.postings_fetched += entry->postings.size();
        return hdk::ProbeOutcome{entry->is_hdk};
      });

  if (deadline_hit) {
    exec.degraded = true;
    exec.cost.deadline_exceeded = 1;
  }
  exec.cost.keys_fetched = plan.fetched.size();
  exec.cost.probes = plan.probes;
  exec.cost.pruned = plan.pruned;
  exec.results = hdk::RankFetchedKeys(fetched, collection_size_,
                                      avg_doc_length_, k);

  exec.cost.messages = tally.counters().messages;
  exec.cost.hops = tally.counters().hops;
  return exec;
}

}  // namespace hdk::p2p
