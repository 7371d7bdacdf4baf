// Side-by-side comparison of the three retrieval architectures, built
// by spec name through MakeEngine and driven purely through the unified
// SearchEngine interface:
//   * "hdk"         — the paper's contribution,
//   * "single-term" — naive distributed single-term baseline,
//   * "centralized" — quality reference (Terrier stand-in).
#include <cstdio>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "engine/engine_factory.h"
#include "engine/experiment.h"
#include "engine/overlap.h"
#include "engine/partition.h"

int main() {
  using namespace hdk;
  SetLogLevel(LogLevel::kWarning);

  engine::ExperimentSetup setup = engine::ExperimentSetup::Tiny();
  setup.max_peers = 6;
  engine::ExperimentContext ctx(setup);
  const uint64_t num_docs =
      static_cast<uint64_t>(setup.max_peers) * setup.docs_per_peer;
  const corpus::DocumentStore& store = ctx.GrowTo(num_docs);

  engine::EngineConfig config = setup.MakeConfig(setup.DfMaxHigh());
  // All available cores for the indexing scans and the SearchBatch
  // fan-out; results are identical to num_threads = 1 (README "Threading").
  config.num_threads = 0;

  // One factory call per backend; everything else is interface-driven.
  Stopwatch build_watch;
  std::vector<std::unique_ptr<engine::SearchEngine>> engines;
  for (engine::EngineKind kind : engine::kAllEngineKinds) {
    auto built = engine::MakeEngine(
        kind, config, store, engine::SplitEvenly(num_docs, setup.max_peers));
    if (!built.ok()) {
      std::fprintf(stderr, "%s: %s\n",
                   std::string(engine::EngineKindName(kind)).c_str(),
                   built.status().ToString().c_str());
      return 1;
    }
    engines.push_back(std::move(built).value());
  }
  const double build_s = build_watch.ElapsedSeconds();

  auto queries = ctx.MakeQueries(num_docs, setup.num_queries);
  const double n = static_cast<double>(queries.size());

  // The centralized reference anchors the quality comparison.
  Stopwatch query_watch;
  std::vector<engine::BatchResponse> batches;
  batches.reserve(engines.size());
  for (auto& e : engines) {
    batches.push_back(e->SearchBatch(queries, 20));
  }
  const double query_s = query_watch.ElapsedSeconds();

  std::vector<std::vector<index::ScoredDoc>> reference;
  for (size_t i = 0; i < engines.size(); ++i) {
    if (engine::kAllEngineKinds[i] != engine::EngineKind::kCentralized) {
      continue;
    }
    for (const auto& r : batches[i].responses) {
      reference.push_back(r.results);
    }
  }

  std::printf("collection: %llu docs on %u peers; %zu queries; "
              "build %.1fs, queries %.2fs\n\n",
              static_cast<unsigned long long>(num_docs), setup.max_peers,
              queries.size(), build_s, query_s);

  std::printf("%-28s %14s %14s %14s %12s %10s\n", "engine", "stored/peer",
              "inserted/peer", "post/query", "msgs/query", "ovl@20");
  for (size_t i = 0; i < engines.size(); ++i) {
    const auto& e = *engines[i];
    const auto& batch = batches[i];
    std::vector<std::vector<index::ScoredDoc>> results;
    for (const auto& r : batch.responses) results.push_back(r.results);
    std::printf("%-28s %14.0f %14.0f %14.1f %12.1f %9.0f%%\n",
                std::string(e.name()).c_str(), e.StoredPostingsPerPeer(),
                e.InsertedPostingsPerPeer(),
                static_cast<double>(batch.total.postings_fetched) / n,
                static_cast<double>(batch.total.messages) / n,
                engine::MeanTopKOverlap(results, reference, 20) * 100.0);
  }

  std::printf("\nreading: the ST engine reproduces centralized BM25 "
              "exactly (same index, same scorer) but pays\nunbounded "
              "retrieval traffic; HDK trades a bigger index for bounded "
              "per-query traffic at a small\nquality cost — the paper's "
              "central trade-off.\n");
  return 0;
}
