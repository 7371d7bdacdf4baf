// Web-search scenario (the paper's motivating use case): a peer network
// collaboratively indexes a Wikipedia-like collection; users issue
// multi-term web queries; the engine answers them with bounded traffic
// and near-centralized quality.
#include <cstdio>

#include "common/logging.h"
#include "corpus/query_gen.h"
#include "corpus/synthetic.h"
#include "engine/centralized.h"
#include "engine/experiment.h"
#include "engine/overlap.h"

int main() {
  using namespace hdk;
  SetLogLevel(LogLevel::kWarning);

  // A small web-like collection: 8 peers x 250 documents.
  engine::ExperimentSetup setup = engine::ExperimentSetup::Tiny();
  setup.initial_peers = 8;
  setup.max_peers = 8;
  setup.docs_per_peer = 250;

  engine::ExperimentContext ctx(setup);
  auto point = ctx.EnginesAt(8);
  if (!point.ok()) {
    std::fprintf(stderr, "%s\n", point.status().ToString().c_str());
    return 1;
  }
  auto centralized =
      engine::CentralizedBm25Engine::Build(ctx.GrowTo(point->num_docs));
  if (!centralized.ok()) return 1;

  std::printf("web-search demo: %llu documents over %u peers "
              "(DFmax=%llu, w=20, smax=3)\n\n",
              static_cast<unsigned long long>(point->num_docs), 8u,
              static_cast<unsigned long long>(setup.DfMaxHigh()));

  auto queries = ctx.MakeQueries(point->num_docs, 12);
  std::printf("%-28s %6s %9s %9s %9s %8s\n", "query (term ids)", "|q|",
              "HDK post", "ST post", "saving", "ovl@10");
  for (const auto& q : queries) {
    auto hdk_exec = point->hdk_high->Search(q.terms, 10);
    auto st_exec = point->st->Search(q.terms, 10);
    auto bm25 = (*centralized)->Rank(q.terms, 10);
    double overlap = engine::TopKOverlap(hdk_exec.results, bm25, 10);

    std::string qs = "{";
    for (size_t i = 0; i < q.terms.size(); ++i) {
      if (i) qs += ",";
      qs += std::to_string(q.terms[i]);
    }
    qs += "}";
    if (qs.size() > 27) qs = qs.substr(0, 24) + "...";
    std::printf(
        "%-28s %6zu %9llu %9llu %8.1fx %7.0f%%\n", qs.c_str(),
        q.terms.size(),
        static_cast<unsigned long long>(hdk_exec.cost.postings_fetched),
        static_cast<unsigned long long>(st_exec.cost.postings_fetched),
        hdk_exec.cost.postings_fetched > 0
            ? static_cast<double>(st_exec.cost.postings_fetched) /
                  static_cast<double>(hdk_exec.cost.postings_fetched)
            : 0.0,
        overlap * 100.0);
  }

  std::printf("\ntop result for the first query (HDK vs centralized "
              "BM25):\n");
  if (!queries.empty()) {
    auto hdk_exec = point->hdk_high->Search(queries[0].terms, 3);
    auto bm25 = (*centralized)->Rank(queries[0].terms, 3);
    for (size_t i = 0; i < 3; ++i) {
      std::printf("  #%zu  HDK doc %-8u  BM25 doc %-8u\n", i + 1,
                  i < hdk_exec.results.size() ? hdk_exec.results[i].doc
                                              : kInvalidDoc,
                  i < bm25.size() ? bm25[i].doc : kInvalidDoc);
    }
  }
  return 0;
}
