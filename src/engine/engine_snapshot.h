// Engine snapshot codec: persists the COMPLETE built state of an
// HdkSearchEngine into the sectioned snapshot container (store/) and
// restores a fingerprint-identical engine from it without re-running the
// indexing protocol.
//
// What makes the load path fast is the wire layout: every flat
// open-addressing table (FlatMap/FlatSet/KeyTable, see common/flat_map.h)
// is serialized as its dense entry array PLUS its parallel cached-hash
// array. Loading is therefore mmap + bulk memcpy + AdoptRaw, which
// rebuilds each table's slot index from the cached hashes in one linear
// pass — no TermKey is ever re-hashed. At the default experiment scale
// that turns a multi-second protocol run into a sub-second (millisecond-
// range) cold start; hdkbench's cold-start workload measures the ratio.
//
// Sections (see store/snapshot_format.h for the container layout):
//   kConfig       engine parameters + network shape, cross-checked on load
//   kStats        CollectionStats arrays (cf/df/rank frequencies)
//   kOverlay      P-Grid trie paths / Chord ring placements
//   kTraffic      merged traffic counters (total, per kind, per peer)
//   kProtocol     per-peer local knowledge (NDK oracles, published keys)
//                 + the cumulative indexing report
//   kGlobalIndex  per-shard contribution ledger + published fragments
//   kEngine       rotation state + last growth/departure/membership stats
//
// Compatibility contract: the header's config hash covers the HDK
// parameters, overlay kind and overlay seed (NOT the thread count — a
// snapshot written at 4 threads loads fine at 1, and vice versa; shard
// counts are re-routed on load when they differ). The store hash is a
// content identity of the document store; loading against a different
// corpus is refused. A restored engine supports the full lifecycle:
// Search, SearchBatch, ApplyMembership (Grow and churn) behave exactly as
// on the original instance.
#ifndef HDKP2P_ENGINE_ENGINE_SNAPSHOT_H_
#define HDKP2P_ENGINE_ENGINE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/params.h"
#include "common/status.h"
#include "corpus/document.h"
#include "engine/hdk_engine.h"

namespace hdk::engine {

/// Hash of everything the codec requires to match between writer and
/// loader configuration (HDK parameters, overlay kind, overlay seed).
uint64_t SnapshotConfigHash(const EngineConfig& config);

/// Content identity of a document store: document count, total tokens and
/// the token bytes of up to 64 evenly spaced sample documents. Cheap
/// (O(sampled tokens)) yet catches regenerated, truncated or differently
/// seeded corpora.
uint64_t SnapshotStoreHash(const corpus::DocumentStore& store);

/// Persists `engine`'s complete built state to `path` (atomically: tmp
/// file + rename). FailedPrecondition when the engine holds un-merged
/// protocol state (pending contributions / fresh peer knowledge) — that
/// never happens between SearchEngine API calls.
Status SaveEngineSnapshot(const HdkSearchEngine& engine,
                          const std::string& path);

/// What tools/snapshot_inspect prints: everything knowable about a
/// snapshot WITHOUT the writer's config or corpus (which a standalone
/// file inspection does not have).
struct SnapshotDescription {
  struct Section {
    uint32_t id = 0;
    std::string name;
    uint64_t offset = 0;
    uint64_t length = 0;
    uint64_t checksum = 0;
  };
  struct Shard {
    uint64_t ledger_keys = 0;
    uint64_t ledger_postings = 0;  // merged + per-contribution postings
    uint64_t fragment_keys = 0;
    uint64_t fragment_postings = 0;
  };

  uint32_t format_version = 0;
  uint64_t config_hash = 0;
  uint64_t store_hash = 0;
  uint64_t file_size = 0;
  std::vector<Section> sections;

  // Decoded from the config section.
  HdkParams params;
  uint8_t overlay_kind = 0;
  uint64_t overlay_seed = 0;
  uint64_t num_peers = 0;
  uint64_t indexed_docs = 0;

  // Decoded from the global-index section (writer's shard layout).
  std::vector<Shard> shards;

  // Replica-holder accounting, filled only when DescribeEngineSnapshot
  // was given a replication factor > 1 (replication is runtime config,
  // not persisted): element p counts the published keys whose salted
  // placement makes peer p a replica holder. Recomputed from the
  // restored overlay exactly as the engine derives its replicas.
  uint32_t replication = 1;
  std::vector<uint64_t> replica_keys_per_peer;
};

/// Opens and fully checksum-validates `path`, then decodes the metadata
/// sections into a description. Never needs the writer's config or
/// corpus; corrupt files fail with the same statuses as a load. Passing
/// `replication` > 1 additionally reconstructs the overlay and fills
/// replica_keys_per_peer — what each peer would hold as a replica under
/// that factor (tools/snapshot_inspect's -r flag).
Result<SnapshotDescription> DescribeEngineSnapshot(const std::string& path,
                                                   uint32_t replication = 1);

/// Restores an engine from a snapshot written by SaveEngineSnapshot.
/// `config` must hash-match the writer's (IOError otherwise); `store`
/// must be the same corpus the snapshot was built over (IOError
/// otherwise) and must outlive the engine. The restored engine is
/// posting-for-posting and traffic-counter-identical to the one that was
/// saved.
Result<std::unique_ptr<HdkSearchEngine>> LoadEngineSnapshot(
    const EngineConfig& config, const corpus::DocumentStore& store,
    const std::string& path);

}  // namespace hdk::engine

#endif  // HDKP2P_ENGINE_ENGINE_SNAPSHOT_H_
