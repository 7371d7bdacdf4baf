// Network-growth scenario (the paper's evolution experiment): peers join
// in waves, each contributing its documents, via SearchEngine::AddPeers —
// only the document delta is indexed, key-space responsibility is handed
// over, and keys whose document frequency crossed DFmax are reclassified.
// Per-peer index size stays manageable and per-query retrieval traffic
// stays bounded while the ST baseline's grows with the collection.
#include <cstdio>

#include "common/logging.h"
#include "engine/experiment.h"

int main() {
  using namespace hdk;
  SetLogLevel(LogLevel::kWarning);

  engine::ExperimentSetup setup = engine::ExperimentSetup::Tiny();
  setup.initial_peers = 2;
  setup.peer_step = 2;
  setup.max_peers = 8;
  setup.docs_per_peer = 200;
  setup.num_queries = 40;

  engine::ExperimentContext ctx(setup);

  std::printf("network growth: +%u peers per wave, %u docs each "
              "(incremental AddPeers — nothing is re-indexed)\n\n",
              setup.peer_step, setup.docs_per_peer);
  std::printf("%7s %8s | %14s %14s | %12s %12s | %s\n", "peers", "docs",
              "stored/peer", "inserted/peer", "HDK q-post", "ST q-post",
              "growth step (HDK low)");

  for (uint32_t peers : setup.PeerSweep()) {
    auto point = ctx.EnginesAt(peers);
    if (!point.ok()) {
      std::fprintf(stderr, "%s\n", point.status().ToString().c_str());
      return 1;
    }
    auto queries = ctx.MakeQueries(point->num_docs, setup.num_queries);
    const double n = queries.empty()
                         ? 1.0
                         : static_cast<double>(queries.size());
    const double hdk_q = static_cast<double>(
        point->hdk_low->SearchBatch(queries, 20).total.postings_fetched);
    const double st_q = static_cast<double>(
        point->st->SearchBatch(queries, 20).total.postings_fetched);

    const p2p::GrowthStats& g = point->hdk_low->last_growth();
    char growth_desc[128] = "initial build";
    if (g.joined_peers > 0) {
      std::snprintf(growth_desc, sizeof(growth_desc),
                    "+%llu peers, %llu ins, %llu recls, %llu migr",
                    static_cast<unsigned long long>(g.joined_peers),
                    static_cast<unsigned long long>(g.delta_insertions),
                    static_cast<unsigned long long>(g.reclassified_keys),
                    static_cast<unsigned long long>(g.migrated_keys));
    }
    std::printf("%7u %8llu | %14.0f %14.0f | %12.0f %12.0f | %s\n", peers,
                static_cast<unsigned long long>(point->num_docs),
                point->hdk_low->StoredPostingsPerPeer(),
                point->hdk_low->InsertedPostingsPerPeer(), hdk_q / n,
                st_q / n, growth_desc);
  }

  std::printf("\nreading: HDK per-query postings stay ~flat while the ST "
              "baseline grows with the collection;\nper-peer index size "
              "stays bounded because new peers absorb the new documents. "
              "Each wave only\nindexes the delta: joining peers insert "
              "their keys, and existing peers expand exactly the\nkeys "
              "that crossed DFmax (reclassifications).\n");
  return 0;
}
