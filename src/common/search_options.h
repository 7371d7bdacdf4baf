// Per-query overload-robustness knobs shared by every retrieval backend.
//
// All knobs default to "off" so a default-constructed SearchOptions is
// byte-identical to the pre-overload engine: no deadline, no hedging, and
// the fast path never consults the budget. The knobs only have an effect
// on the fault-injected network path (net::FaultInjector active), because
// the simulated clock that deadlines and hedges are measured against is
// the injected-latency/backoff tick counter of PR 7's fault layer.
#ifndef HDKP2P_COMMON_SEARCH_OPTIONS_H_
#define HDKP2P_COMMON_SEARCH_OPTIONS_H_

#include <cstdint>

namespace hdk {

/// Per-call retrieval options threaded from SearchEngine::Search /
/// SearchBatch into every HdkRetriever network leg.
struct SearchOptions {
  /// Simulated-time budget of one query in latency ticks; 0 = unlimited.
  /// Every injected-latency and retry-backoff tick is charged against the
  /// budget; once it is exhausted the retriever stops issuing further
  /// probes and returns a partial top-k with SearchResponse::degraded set
  /// and QueryCost::deadline_exceeded = 1 — it never retries forever.
  uint64_t deadline_ticks = 0;
  /// Hedged replica reads: when > 0 and a key has more than one holder,
  /// a fetch whose primary leg has not delivered within this many ticks
  /// fires the same probe at the next replica holder in failover order;
  /// the first (simulated-time) success wins. 0 = hedging off. All
  /// decisions are pure functions of the fault-plan hashes, so results
  /// and traffic are identical at every thread count.
  uint32_t hedge_delay_ticks = 0;

  bool operator==(const SearchOptions&) const = default;
};

/// Saturating simulated-time budget a query carries through its legs.
/// Unlimited (the default) never exhausts and charging it is a no-op, so
/// default-option queries behave exactly as before this type existed.
struct DeadlineBudget {
  static constexpr uint64_t kUnlimited = UINT64_MAX;

  uint64_t remaining = kUnlimited;

  bool unlimited() const { return remaining == kUnlimited; }
  bool exhausted() const { return remaining == 0; }

  /// Charges `ticks` of simulated time, saturating at zero.
  void Charge(uint64_t ticks) {
    if (unlimited()) return;
    remaining = ticks >= remaining ? 0 : remaining - ticks;
  }
};

}  // namespace hdk

#endif  // HDKP2P_COMMON_SEARCH_OPTIONS_H_
