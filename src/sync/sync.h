// Anti-entropy replica synchronisation: configuration and statistics.
//
// The sync subsystem reconciles a replica pair by exchanging sketches of
// their key sets instead of re-shipping whole fragments: a strata
// estimator sizes the symmetric difference, an invertible Bloom filter
// (IBF) decodes it, and only the missing/extra postings travel. When the
// IBF fails to decode — the difference was under-estimated, or the cell
// budget is exhausted — reconciliation falls back deterministically to a
// full bucket re-replication. Degrade, never diverge: a fallback costs
// bandwidth, a wrong decode would silently corrupt a replica, so every
// decoded plan is checksum-verified before it is applied.
//
// See sync/sketch.h for the sketch primitives and sync/reconcile.h for
// the per-pair planner; p2p/global_index.cc wires the planner to the
// net::Channel transport and the replica maps.
#ifndef HDKP2P_SYNC_SYNC_H_
#define HDKP2P_SYNC_SYNC_H_

#include <cstdint>

namespace hdk::sync {

/// How replica maintenance repairs divergence. There is one way:
/// strata-estimator + IBF set reconciliation with a full-sync fallback.
/// (Full re-replication, the baseline it is measured against, ships
/// (replication - 1) x TotalStoredPostings() per sweep.) The enum and
/// SyncConfig::mode stay for source compatibility; nothing reads them.
enum class SyncMode : uint8_t { kIbf = 1 };

/// Tuning of the sketch exchange. Defaults follow the Eppstein et al.
/// "What's the difference?" sizing: ~1.6 IBF cells per expected
/// difference element decodes with high probability at 3 hash functions.
struct SyncConfig {
  SyncMode mode = SyncMode::kIbf;
  /// Strata-estimator depth: stratum i samples ~2^-(i+1) of the key
  /// space, so 16 levels size differences up to ~2^17 elements.
  uint32_t strata_levels = 16;
  /// IBF cells per stratum (fixed, small — the estimator only needs to
  /// decode the sparse top strata).
  uint32_t strata_cells = 40;
  /// Hash functions per IBF (partitioned sub-tables, one per function).
  uint32_t num_hashes = 3;
  /// Difference-IBF cells per estimated difference element.
  double alpha = 1.6;
  /// Cell-count clamp of the difference IBF. An estimate that needs more
  /// than max_cells skips the sketch entirely and goes straight to the
  /// full-sync fallback.
  uint32_t min_cells = 16;
  uint32_t max_cells = 4096;
  /// Seeds every sketch hash; both sides of a pair must agree.
  uint64_t seed = 0x414e544945ULL;  // "ANTIE"

  bool operator==(const SyncConfig&) const = default;
};

/// What a reconciliation pass did — the stats surface of acceptance
/// criterion (c). Cumulative when read via sync_stats(), per-call when
/// returned from ReconcileReplicas()/RunAntiEntropy().
struct SyncStats {
  uint64_t pairs_checked = 0;      // (primary, holder) pairs visited
  uint64_t pairs_diverged = 0;     // pairs that needed any repair
  uint64_t pairs_unreachable = 0;  // skipped or aborted: dead peer / lost
                                   // exchange leg (no partial apply)
  uint64_t messages = 0;           // sync messages recorded on the wire
  uint64_t sketch_messages = 0;    // strata + IBF exchanges
  uint64_t sketch_bytes = 0;       // payload bytes of those sketches
  uint64_t estimated_diff = 0;     // strata-estimator difference estimate
  uint64_t decoded_diff = 0;       // elements actually decoded from IBFs
  uint64_t delta_keys = 0;         // keys shipped by decoded deltas
  uint64_t delta_postings = 0;     // postings shipped by decoded deltas
  uint64_t dropped_keys = 0;       // stale replica keys dropped
  uint64_t full_syncs = 0;         // pairs that fell back to full sync
  uint64_t full_keys = 0;          // keys shipped by full syncs
  uint64_t full_postings = 0;      // postings shipped by full syncs

  void Add(const SyncStats& other) {
    pairs_checked += other.pairs_checked;
    pairs_diverged += other.pairs_diverged;
    pairs_unreachable += other.pairs_unreachable;
    messages += other.messages;
    sketch_messages += other.sketch_messages;
    sketch_bytes += other.sketch_bytes;
    estimated_diff += other.estimated_diff;
    decoded_diff += other.decoded_diff;
    delta_keys += other.delta_keys;
    delta_postings += other.delta_postings;
    dropped_keys += other.dropped_keys;
    full_syncs += other.full_syncs;
    full_keys += other.full_keys;
    full_postings += other.full_postings;
  }

  /// Total postings that travelled for repair (the bench's headline
  /// metric: IBF must beat full re-replication on this by >= 5x at
  /// small divergence).
  uint64_t ShippedPostings() const { return delta_postings + full_postings; }

  bool operator==(const SyncStats&) const = default;
};

}  // namespace hdk::sync

#endif  // HDKP2P_SYNC_SYNC_H_
