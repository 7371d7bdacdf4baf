// Table 2 — experiment parameters.
//
// Paper: N = 4, 8, ..., 28 peers; 5,000 documents per peer; l = 1,123,000
// words per peer; DFmax = 400 and 500; Ff = 100,000; w = 20; smax = 3.
// Here: the scaled equivalents actually used by the figure benches, with
// the scaling rule applied (thresholds stay proportional, see README
// "Scaling").
#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace hdk;
  auto setup = bench::SelectSetup();
  bench::Banner("Table 2: parameters used in experiments",
                "N=4..28, 5000 docs/peer, DFmax {400,500}, Ff=100000, "
                "w=20, smax=3");

  engine::ExperimentContext ctx(setup);
  const corpus::CollectionStats& stats =
      ctx.StatsFor(static_cast<uint64_t>(setup.initial_peers) *
                   setup.docs_per_peer);
  const double words_per_peer =
      stats.average_document_length() * setup.docs_per_peer;

  std::printf("%-38s %-22s %-22s\n", "parameter", "paper", "this run");
  std::printf("%-38s %-22s %u, %u, ..., %u\n", "number of peers N",
              "4, 8, ..., 28", setup.initial_peers,
              setup.initial_peers + setup.peer_step, setup.max_peers);
  std::printf("%-38s %-22s %u\n", "documents per peer", "5,000",
              setup.docs_per_peer);
  std::printf("%-38s %-22s %.0f\n", "size in words l per peer",
              "1,123,000", words_per_peer);
  std::printf("%-38s %-22s %llu and %llu\n", "DFmax", "400 and 500",
              static_cast<unsigned long long>(setup.DfMaxLow()),
              static_cast<unsigned long long>(setup.DfMaxHigh()));
  std::printf("%-38s %-22s %llu\n", "Ff", "100,000",
              static_cast<unsigned long long>(setup.DeriveFf()));
  std::printf("%-38s %-22s %u\n", "w",
              "20", setup.MakeParams(setup.DfMaxLow()).window);
  std::printf("%-38s %-22s %u\n", "smax",
              "3", setup.MakeParams(setup.DfMaxLow()).s_max);
  std::printf("%-38s %-22s %u\n", "queries per retrieval run", "3,000",
              setup.num_queries);
  std::printf("\n");
  return 0;
}
