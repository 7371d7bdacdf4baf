// Shared experiment harness for the paper-reproduction benches.
//
// SCALING NOTE (see README "Scaling"): the paper's testbed indexes 5,000
// Wikipedia documents per peer (20k..140k documents total). The benches
// reproduce every curve's SHAPE on a laptop-friendly scale by shrinking
// the collection and scaling the two collection-dependent thresholds
// proportionally:
//   * DFmax stays a constant fraction of the collection size
//     (paper: 400/140k ~ 0.3%),
//   * Ff stays a constant fraction of the token count
//     (paper: 100k/31.5M ~ 0.3%).
// Everything else (w = 20, s_max = 3, query length distribution) matches
// the paper exactly.
#ifndef HDKP2P_ENGINE_EXPERIMENT_H_
#define HDKP2P_ENGINE_EXPERIMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/params.h"
#include "common/status.h"
#include "corpus/document.h"
#include "corpus/query_gen.h"
#include "corpus/stats.h"
#include "corpus/synthetic.h"
#include "engine/centralized.h"
#include "engine/engine_config.h"
#include "engine/hdk_engine.h"
#include "engine/partition.h"
#include "engine/st_engine.h"

namespace hdk::engine {

/// The scaled experimental setup shared by the figure benches.
struct ExperimentSetup {
  corpus::SyntheticConfig corpus;
  /// Peers join in steps of `peer_step` starting from `initial_peers`
  /// (paper: 4, 8, ..., 28).
  uint32_t initial_peers = 4;
  uint32_t peer_step = 4;
  uint32_t max_peers = 28;
  /// Documents contributed per peer (paper: 5,000; scaled default 500).
  uint32_t docs_per_peer = 500;
  /// DFmax as a fraction of the total document count at the LARGEST sweep
  /// point, mirroring the paper's 400/140k. Two values, like the paper's
  /// {400, 500}.
  double df_max_fraction_low = 400.0 / 140000.0;
  double df_max_fraction_high = 500.0 / 140000.0;
  /// Ff as a fraction of total tokens at the largest sweep point.
  double ff_fraction = 100000.0 / 31500000.0;
  /// Retrieval workload.
  uint32_t num_queries = 300;
  size_t top_k = 20;
  OverlayKind overlay = OverlayKind::kPGrid;
  uint64_t overlay_seed = 42;
  /// Worker threads for every engine the context builds (0 = hardware
  /// concurrency, 1 = exact serial path); results are identical either
  /// way. Benches override via HDKP2P_THREADS.
  size_t num_threads = 0;
  /// Unused; kept because the frozen hdkbench harness still clears it.
  std::string corpus_cache_dir;

  /// Paper-faithful defaults scaled to laptop size.
  static ExperimentSetup ScaledDefault();

  /// A smaller variant for quick smoke runs and tests.
  static ExperimentSetup Tiny();

  /// Collection size at the largest sweep point.
  uint64_t MaxDocuments() const {
    return static_cast<uint64_t>(max_peers) * docs_per_peer;
  }

  /// The two DFmax values used by the sweep (paper's 400 and 500),
  /// derived from the fractions and the maximal collection size.
  Freq DfMaxLow() const;
  Freq DfMaxHigh() const;

  /// Ff derived from the token volume estimate.
  Freq DeriveFf() const;

  /// HdkParams assembled for a given DFmax.
  HdkParams MakeParams(Freq df_max) const;

  /// The engine configuration every sweep engine is built from:
  /// MakeParams(df_max) plus this setup's overlay and thread count.
  EngineConfig MakeConfig(Freq df_max) const;

  /// Peer counts of the sweep: initial, initial+step, ..., max.
  std::vector<uint32_t> PeerSweep() const;
};

/// One sweep point's engine bundle. The engines are OWNED BY THE CONTEXT
/// and persist across sweep points: advancing the sweep grows them
/// incrementally (SearchEngine::AddPeers over the document delta), exactly
/// like the paper's "4 more peers join with their documents" runs — and
/// far cheaper than the old re-index-from-scratch-per-point harness.
struct EnginesAtPoint {
  uint32_t num_peers = 0;
  uint64_t num_docs = 0;
  HdkSearchEngine* hdk_low = nullptr;   // DFmax = DfMaxLow()
  HdkSearchEngine* hdk_high = nullptr;  // DFmax = DfMaxHigh()
  SingleTermEngine* st = nullptr;
};

/// Grows a deterministic synthetic collection on demand and caches
/// statistics per size. Each sweep point uses the PREFIX of the same
/// collection, exactly like the paper's incremental "4 more peers join
/// with their documents" runs. Also owns the sweep's engines (see
/// EnginesAtPoint).
class ExperimentContext {
 public:
  explicit ExperimentContext(const ExperimentSetup& setup);
  ~ExperimentContext();

  const ExperimentSetup& setup() const { return setup_; }

  /// Ensures the store holds at least `docs` documents and returns it.
  const corpus::DocumentStore& GrowTo(uint64_t docs);

  /// Statistics for the first `docs` documents (the store is grown to
  /// exactly that size first; recomputed only when the size changed).
  const corpus::CollectionStats& StatsFor(uint64_t docs);

  /// Generates the retrieval workload against the current collection
  /// (paper: multi-term queries, 2..8 terms, avg ~3, df floor).
  std::vector<corpus::Query> MakeQueries(uint64_t docs, uint32_t num_queries);

  /// Engines for the sweep point with `num_peers` peers. The first call
  /// builds them; subsequent calls with a LARGER peer count join the new
  /// peers incrementally with their document delta. Sweeps must be
  /// monotone (the paper's are).
  Result<EnginesAtPoint> EnginesAt(uint32_t num_peers);

  const corpus::SyntheticCorpus& corpus() const { return corpus_; }

 private:
  ExperimentSetup setup_;
  corpus::SyntheticCorpus corpus_;
  corpus::DocumentStore store_;
  uint64_t stats_docs_ = 0;
  std::unique_ptr<corpus::CollectionStats> stats_;
  // Sweep engines, grown in place.
  std::unique_ptr<HdkSearchEngine> hdk_low_;
  std::unique_ptr<HdkSearchEngine> hdk_high_;
  std::unique_ptr<SingleTermEngine> st_;
  uint32_t built_peers_ = 0;
};

}  // namespace hdk::engine

#endif  // HDKP2P_ENGINE_EXPERIMENT_H_
