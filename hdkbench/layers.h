// Per-layer measurements of the traced run. Each one replays a layer's
// public functions from the benchmark's own code, with spans around every
// call, and writes its figures straight into the run's metrics.
#ifndef HDKBENCH_LAYERS_H_
#define HDKBENCH_LAYERS_H_

#include <span>

#include "corpus/document.h"
#include "corpus/query_gen.h"
#include "phases.h"
#include "run.h"

namespace hdkbench {

/// Replays every peer's CandidateBuilder levels over its document range,
/// with the NDK oracle taken from the engine's exported contents, and
/// checks the formation count against the engine's indexing report.
/// Sets hdk.scan_l{1,2,3}_s, hdk.formations, hdk.candidates_l{2,3} and
/// hdk.pruned_candidates.
void ReplayBuild(Run& run, const HdkSearchEngine& engine,
                 const hdk::corpus::DocumentStore& store);

/// For every query: Search() under a span, then the same query replayed
/// as PlanRetrieval (with a span around every FetchFrom) and
/// RankFetchedKeys, whose top-k must equal Search()'s. Sets the per-query
/// means hdk.lattice_us (self time), p2p.fetch_us, hdk.rank_us,
/// engine.search_self_us (Search() minus the three), hdk.probes,
/// hdk.pruned_nodes, hdk.rank_postings and p2p.keys_fetched.
void ReplayQueries(Run& run, HdkSearchEngine& engine,
                   std::span<const hdk::corpus::Query> queries,
                   const OriginFn& origin);

/// Median wall time of AddPeer and RemovePeer on a fresh overlay of the
/// run's size (dht.add_peer_us, dht.remove_peer_us).
void ProbeOverlay(Run& run, const ExperimentSetup& setup);

/// Full builds at 1 thread and at the run's engine threads, with the
/// protocol's scan/merge split for each.
void MeasureThreadScaling(Run& run, const ExperimentSetup& setup,
                          const hdk::corpus::DocumentStore& store);

/// Alternating passes over the queries with span recording off and on;
/// trace.overhead_pct is the relative difference of their medians.
void MeasureTraceOverhead(Run& run, HdkSearchEngine& engine,
                          std::span<const hdk::corpus::Query> queries,
                          const hdk::SearchOptions& options,
                          const OriginFn& origin);

}  // namespace hdkbench

#endif  // HDKBENCH_LAYERS_H_
