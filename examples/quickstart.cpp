// Quickstart: index a handful of raw-text documents on a small P2P
// network with Highly Discriminative Keys and answer a multi-term query.
//
// Demonstrates the full public pipeline:
//   raw text --Analyzer--> term ids --HdkSearchEngine--> ranked results
#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.h"
#include "corpus/document.h"
#include "engine/hdk_engine.h"
#include "text/analyzer.h"

int main() {
  using namespace hdk;
  SetLogLevel(LogLevel::kWarning);

  // 1. Analyze a tiny document collection (tokenize, remove the 250 stop
  //    words, Porter-stem) into a shared vocabulary.
  const std::vector<std::pair<std::string, std::string>> raw_docs = {
      {"P2P retrieval",
       "Peer to peer retrieval engines distribute the indexing and the "
       "querying load over large networks of collaborating peers."},
      {"HDK indexing",
       "Highly discriminative keys are carefully selected terms and term "
       "sets appearing in a small number of collection documents."},
      {"Posting lists",
       "Indexing with single terms leads to very long posting lists and "
       "unacceptable bandwidth consumption during retrieval."},
      {"Structured overlays",
       "A structured overlay network maps every key to a responsible peer "
       "and routes lookup messages in a logarithmic number of hops."},
      {"BM25 ranking",
       "The BM25 relevance scheme ranks documents with term frequency "
       "saturation and document length normalization."},
      {"Scalability",
       "The scalability analysis bounds the number of postings the network "
       "transmits during indexing and retrieval of web collections."},
  };

  text::Analyzer analyzer;
  text::Vocabulary vocab;
  corpus::DocumentStore store;
  for (const auto& [title, body] : raw_docs) {
    store.Add(analyzer.Analyze(body, &vocab));
  }

  // 2. Build the HDK P2P engine: 3 peers, paper parameters scaled to the
  //    toy collection.
  engine::EngineConfig config;
  config.hdk.df_max = 2;                  // tiny collection => tiny DFmax
  config.hdk.very_frequent_threshold = 50;
  config.hdk.window = 10;
  config.hdk.s_max = 3;

  auto built = engine::HdkSearchEngine::Build(
      config, store, engine::SplitEvenly(store.size(), 3));
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  auto& engine = *built;

  std::printf("indexed %llu documents on %zu peers; global index holds "
              "%llu keys / %llu postings\n\n",
              static_cast<unsigned long long>(engine->num_documents()),
              engine->num_peers(),
              static_cast<unsigned long long>(
                  engine->global_index().TotalKeys()),
              static_cast<unsigned long long>(
                  engine->global_index().TotalStoredPostings()));

  // 3. Query. The analyzer dedupes/stems query words the same way.
  const std::string query_text = "peer retrieval networks";
  std::vector<TermId> query = analyzer.AnalyzeQuery(query_text, vocab);
  auto exec = engine->Search(query, 3);

  std::printf("query: \"%s\"  (analyzed to %zu terms)\n",
              query_text.c_str(), query.size());
  std::printf("fetched %llu keys / %llu postings in %llu messages "
              "(%llu overlay hops)\n\n",
              static_cast<unsigned long long>(exec.cost.keys_fetched),
              static_cast<unsigned long long>(exec.cost.postings_fetched),
              static_cast<unsigned long long>(exec.cost.messages),
              static_cast<unsigned long long>(exec.cost.hops));
  for (size_t i = 0; i < exec.results.size(); ++i) {
    const auto& r = exec.results[i];
    std::printf("  %zu. [score %.3f] %s\n", i + 1, r.score,
                raw_docs[r.doc].first.c_str());
  }
  return 0;
}
