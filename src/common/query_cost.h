// Unified per-query cost accounting shared by every retrieval backend.
//
// Subsumes the engine-specific execution counters the HDK retriever and the
// single-term baseline used to report separately, so that benches and tests
// can compare engines through one structure. Counters a backend does not
// use (e.g. lattice probes for the single-term engine, any network counter
// for the centralized engine) simply stay zero.
#ifndef HDKP2P_COMMON_QUERY_COST_H_
#define HDKP2P_COMMON_QUERY_COST_H_

#include <cstdint>

namespace hdk {

/// Cost counters of one query execution (or an aggregate of several).
struct QueryCost {
  /// Keys (or terms) whose posting lists were fetched.
  uint64_t keys_fetched = 0;
  /// Postings transferred to the querying peer (paper Figure 6 metric).
  uint64_t postings_fetched = 0;
  /// Probe messages issued / lattice nodes pruned without probing.
  uint64_t probes = 0;
  uint64_t pruned = 0;
  /// Total messages (probes + responses) and overlay routing hops.
  uint64_t messages = 0;
  uint64_t hops = 0;
  /// Result-cache outcomes (engine decorators, e.g. "cached(hdk)"): a hit
  /// answers from the cache with every network counter zero; a miss ran
  /// the wrapped engine. Both stay 0 on undecorated engines.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// Failure-handling counters (all zero on a fault-free run): send
  /// attempts beyond the first, key fetches answered by a replica holder
  /// after the responsible peer failed, lattice keys unreachable after
  /// every holder failed (the query degrades; see
  /// SearchResponse::degraded), and simulated latency accrued from
  /// injected delay plus retry backoff.
  uint64_t retries = 0;
  uint64_t failovers = 0;
  uint64_t keys_unreachable = 0;
  uint64_t latency_ticks = 0;
  /// Tail-latency armor counters (all zero with the default knobs):
  /// hedged replica reads fired after SearchOptions::hedge_delay_ticks
  /// without a delivered primary response, hedges whose replica answer
  /// won the race, and queries whose SearchOptions::deadline_ticks budget
  /// ran out (1 on such a query's cost; the response is partial and
  /// explicitly degraded).
  uint64_t hedges_fired = 0;
  uint64_t hedge_wins = 0;
  /// Always 0: the engine has no circuit breakers. Kept because the
  /// hdkbench harness reports it.
  uint64_t breaker_short_circuits = 0;
  uint64_t deadline_exceeded = 0;

  QueryCost& operator+=(const QueryCost& other) {
    keys_fetched += other.keys_fetched;
    postings_fetched += other.postings_fetched;
    probes += other.probes;
    pruned += other.pruned;
    messages += other.messages;
    hops += other.hops;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    retries += other.retries;
    failovers += other.failovers;
    keys_unreachable += other.keys_unreachable;
    latency_ticks += other.latency_ticks;
    hedges_fired += other.hedges_fired;
    hedge_wins += other.hedge_wins;
    deadline_exceeded += other.deadline_exceeded;
    return *this;
  }

  bool operator==(const QueryCost&) const = default;
};

}  // namespace hdk

#endif  // HDKP2P_COMMON_QUERY_COST_H_
