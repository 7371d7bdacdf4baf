// EngineConfig — the one configuration every retrieval backend is built
// from. Each backend consumes the fields it understands; the HDK engine,
// the single-term baseline, the centralized reference, snapshot loads and
// the experiment harness all take it whole.
#ifndef HDKP2P_ENGINE_ENGINE_CONFIG_H_
#define HDKP2P_ENGINE_ENGINE_CONFIG_H_

#include <cstddef>
#include <cstdint>

#include "common/params.h"
#include "engine/overlay_factory.h"
#include "index/bm25.h"
#include "net/fault.h"
#include "sync/sync.h"

namespace hdk::engine {

struct EngineConfig {
  /// HDK model parameters (HDK backend).
  HdkParams hdk;
  /// Ranking parameters of the centralized reference (the distributed
  /// baseline uses the shared BM25 defaults).
  index::Bm25Params bm25;
  /// Structured overlay for the distributed backends.
  OverlayKind overlay = OverlayKind::kPGrid;
  uint64_t overlay_seed = 42;
  /// Worker threads for indexing scans and the SearchBatch fan-out, in
  /// every backend. 0 = hardware concurrency, 1 = exact serial path.
  /// Indexes and query results are identical for every value (see README
  /// "Threading").
  size_t num_threads = 0;
  /// Fault-injection plan installed on the distributed backends'
  /// transport at build time (see net/fault.h for the grammar; the
  /// "faulty:seed=7,loss=0.01(hdk)" spec decorator overrides it). The
  /// default plan is inactive: the engine is byte-identical to a
  /// perfect-transport build. The single-term baseline applies it to the
  /// query path only (its terms are single-homed, so an unreachable owner
  /// degrades the response). Excluded from the snapshot config hash:
  /// faults perturb transport, never the published index.
  net::FaultPlan faults;
  /// Key replication factor of the HDK global index (1 = primary only).
  /// Values > 1 let queries fail over to replica holders when the
  /// responsible peer is dead; the single-term baseline stays
  /// single-homed.
  uint32_t replication = 1;
  /// Sketch tuning of the HDK backend's anti-entropy replica
  /// reconciliation (see sync/sync.h). Excluded from the snapshot config
  /// hash for the same reason as `faults`: it shapes repair transport,
  /// never the published index.
  sync::SyncConfig sync;
};

}  // namespace hdk::engine

#endif  // HDKP2P_ENGINE_ENGINE_CONFIG_H_
