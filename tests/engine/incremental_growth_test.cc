// The incremental-lifecycle guarantee of the unified SearchEngine API:
// growing an engine with AddPeers (the paper's "peers join in waves with
// their documents" evolution) produces EXACTLY the state of a from-scratch
// build over the final collection — posting-for-posting for the HDK global
// index, including HDK -> NDK reclassification of keys whose document
// frequency crossed DFmax and the purge of terms that crossed the
// very-frequent threshold Ff.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/query_gen.h"
#include "corpus/stats.h"
#include "corpus/synthetic.h"
#include "engine/centralized.h"
#include "engine/experiment.h"
#include "engine/hdk_engine.h"
#include "engine/partition.h"
#include "engine/st_engine.h"
#include "hdk/indexer.h"

namespace hdk::engine {
namespace {

corpus::SyntheticCorpus GrowthCorpus() {
  corpus::SyntheticConfig cfg;
  cfg.seed = 90210;
  cfg.vocabulary_size = 3000;
  cfg.num_topics = 12;
  cfg.topic_width = 35;
  cfg.mean_doc_length = 50.0;
  cfg.topic_share = 0.7;
  return corpus::SyntheticCorpus(cfg);
}

EngineConfig GrowthConfig() {
  EngineConfig config;
  config.hdk.df_max = 8;
  config.hdk.very_frequent_threshold = 450;
  config.hdk.window = 8;
  config.hdk.s_max = 3;
  return config;
}

void ExpectSameContents(const hdk::HdkIndexContents& a,
                        const hdk::HdkIndexContents& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [key, entry] : a.entries()) {
    const hdk::KeyEntry* other = b.Find(key);
    ASSERT_NE(other, nullptr) << "missing key " << key.ToString();
    EXPECT_EQ(entry.global_df, other->global_df) << key.ToString();
    EXPECT_EQ(entry.is_hdk, other->is_hdk) << key.ToString();
    EXPECT_EQ(entry.postings, other->postings) << key.ToString();
  }
}

TEST(IncrementalGrowthTest, HdkAddPeersEqualsFromScratchBuild) {
  corpus::SyntheticCorpus corpus = GrowthCorpus();
  corpus::DocumentStore store;

  // Incrementally grown engine: 2 peers over 120 docs, then two waves of
  // 2 peers with 60 docs each.
  corpus.FillStore(120, &store);
  auto grown = HdkSearchEngine::Build(GrowthConfig(), store,
                                      SplitEvenly(120, 2));
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();

  uint64_t reclassified = 0;
  corpus.FillStore(240, &store);
  ASSERT_TRUE((*grown)->AddPeers(store, JoinRanges(120, 2, 60)).ok());
  reclassified += (*grown)->last_growth().reclassified_keys;
  corpus.FillStore(360, &store);
  ASSERT_TRUE((*grown)->AddPeers(store, JoinRanges(240, 2, 60)).ok());
  reclassified += (*grown)->last_growth().reclassified_keys;
  ASSERT_EQ((*grown)->num_peers(), 6u);
  ASSERT_EQ((*grown)->num_documents(), 360u);

  // The growth must have exercised the hard path: keys crossing DFmax.
  EXPECT_GT(reclassified, 0u);

  // From-scratch reference over the final collection.
  auto scratch = HdkSearchEngine::Build(GrowthConfig(), store,
                                        SplitEvenly(360, 6));
  ASSERT_TRUE(scratch.ok());

  // Posting-for-posting identical global index...
  ExpectSameContents((*scratch)->global_index().ExportContents(),
                     (*grown)->global_index().ExportContents());
  EXPECT_EQ((*grown)->global_index().TotalStoredPostings(),
            (*scratch)->global_index().TotalStoredPostings());
  // ...and identical retrieval behaviour.
  corpus::CollectionStats stats(store);
  corpus::QueryGenConfig qcfg;
  qcfg.min_term_df = 3;
  auto queries = corpus::QueryGenerator(qcfg, store, stats).Generate(30);
  ASSERT_GT(queries.size(), 10u);
  for (const auto& q : queries) {
    auto a = (*grown)->Search(q.terms, 20, /*origin=*/0);
    auto b = (*scratch)->Search(q.terms, 20, /*origin=*/0);
    ASSERT_EQ(a.results.size(), b.results.size());
    for (size_t i = 0; i < a.results.size(); ++i) {
      EXPECT_EQ(a.results[i].doc, b.results[i].doc);
      EXPECT_NEAR(a.results[i].score, b.results[i].score, 1e-12);
    }
    EXPECT_EQ(a.cost.postings_fetched, b.cost.postings_fetched);
  }
}

TEST(IncrementalGrowthTest, HdkGrowthMatchesCentralizedReference) {
  // The distributed invariant holds through growth: the grown engine's
  // logical index equals the centralized indexer's output on the final
  // collection.
  corpus::SyntheticCorpus corpus = GrowthCorpus();
  corpus::DocumentStore store;
  corpus.FillStore(120, &store);
  auto grown = HdkSearchEngine::Build(GrowthConfig(), store,
                                      SplitEvenly(120, 3));
  ASSERT_TRUE(grown.ok());
  corpus.FillStore(240, &store);
  ASSERT_TRUE((*grown)->AddPeers(store, JoinRanges(120, 3, 40)).ok());

  corpus::CollectionStats stats(store);
  hdk::CentralizedHdkIndexer reference(GrowthConfig().hdk);
  auto expected = reference.Build(store, stats);
  ASSERT_TRUE(expected.ok());
  ExpectSameContents(*expected,
                     (*grown)->global_index().ExportContents());
}

TEST(IncrementalGrowthTest, DfMaxCrossingAndVeryFrequentPurge) {
  // A handcrafted collection that forces the two delicate growth paths
  // deterministically:
  //   * term 1 crosses the very-frequent threshold Ff only after the
  //     second wave of documents -> its keys must be purged,
  //   * term 2's document frequency crosses DFmax only after the second
  //     wave -> its key must be reclassified HDK -> NDK and expanded into
  //     pairs by the OLD peers that contributed it.
  EngineConfig config;
  config.hdk.df_max = 8;
  config.hdk.very_frequent_threshold = 25;
  config.hdk.window = 8;
  config.hdk.s_max = 3;

  corpus::DocumentStore store;
  auto filler = [](DocId d, uint32_t i) -> TermId {
    return 1000 + d * 16 + i;  // unique background terms
  };
  auto add_doc = [&](std::vector<TermId> front) {
    const DocId d = static_cast<DocId>(store.size());
    while (front.size() < 12) {
      front.push_back(filler(d, static_cast<uint32_t>(front.size())));
    }
    store.Add(std::move(front));
  };

  // Wave 1: 60 documents on 2 peers.
  for (DocId d = 0; d < 60; ++d) {
    std::vector<TermId> front;
    if (d < 20) front.push_back(1);             // cf(1) = 20 <= 25
    if (d >= 20 && d < 26) {
      front.push_back(2);                       // df(2) = 6 <= 8: HDK {2}
      front.push_back(3);                       // {2,3} co-occur in-window
    }
    if (d >= 26 && d < 38) front.push_back(3);  // df(3) = 18 > 8: NDK {3}
    add_doc(std::move(front));
  }
  auto grown = HdkSearchEngine::Build(config, store, SplitEvenly(60, 2));
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();
  {
    const hdk::KeyEntry* e = (*grown)->global_index().Peek(hdk::TermKey{2});
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->is_hdk);
    // {2,3} cannot exist yet: {2} is still discriminative.
    EXPECT_EQ((*grown)->global_index().Peek(hdk::TermKey{2, 3}), nullptr);
  }

  // Wave 2: 60 more documents on 2 joining peers.
  for (DocId d = 60; d < 120; ++d) {
    std::vector<TermId> front;
    if (d < 75) front.push_back(1);             // cf(1) = 35 > 25: purged
    if (d >= 80 && d < 85) front.push_back(2);  // df(2) = 11 > 8: NDK now
    add_doc(std::move(front));
  }
  ASSERT_TRUE((*grown)->AddPeers(store, JoinRanges(60, 2, 30)).ok());

  const p2p::GrowthStats& g = (*grown)->last_growth();
  EXPECT_GE(g.new_very_frequent_terms, 1u);
  EXPECT_GE(g.purged_keys, 1u);
  EXPECT_GE(g.reclassified_keys, 1u);
  EXPECT_GE(g.rescanned_peers, 1u);  // an old peer expanded {2}

  // Term 1 left the key vocabulary; {2} is an NDK; the OLD peer that held
  // docs 20..26 expanded {2,3}, which a from-scratch build also produces.
  EXPECT_EQ((*grown)->global_index().Peek(hdk::TermKey{1}), nullptr);
  const hdk::KeyEntry* two = (*grown)->global_index().Peek(hdk::TermKey{2});
  ASSERT_NE(two, nullptr);
  EXPECT_FALSE(two->is_hdk);
  EXPECT_EQ(two->global_df, 11u);
  EXPECT_NE((*grown)->global_index().Peek(hdk::TermKey{2, 3}), nullptr);

  auto scratch = HdkSearchEngine::Build(config, store, SplitEvenly(120, 4));
  ASSERT_TRUE(scratch.ok());
  ExpectSameContents((*scratch)->global_index().ExportContents(),
                     (*grown)->global_index().ExportContents());
}

TEST(IncrementalGrowthTest, SingleTermAddPeersEqualsFromScratchBuild) {
  corpus::SyntheticCorpus corpus = GrowthCorpus();
  corpus::DocumentStore store;
  corpus.FillStore(120, &store);
  EngineConfig config;
  auto grown = SingleTermEngine::Build(config, store, SplitEvenly(120, 2));
  ASSERT_TRUE(grown.ok());
  corpus.FillStore(240, &store);
  ASSERT_TRUE((*grown)->AddPeers(store, JoinRanges(120, 2, 60)).ok());

  auto scratch = SingleTermEngine::Build(config, store, SplitEvenly(240, 4));
  ASSERT_TRUE(scratch.ok());
  EXPECT_EQ((*grown)->p2p_engine().TotalStoredPostings(),
            (*scratch)->p2p_engine().TotalStoredPostings());
  // Per-peer placement matches too: the grown overlay is identical to the
  // from-scratch one, and fragments were handed over on join.
  for (PeerId p = 0; p < 4; ++p) {
    EXPECT_EQ((*grown)->p2p_engine().StoredPostingsAt(p),
              (*scratch)->p2p_engine().StoredPostingsAt(p));
  }

  corpus::CollectionStats stats(store);
  corpus::QueryGenConfig qcfg;
  qcfg.min_term_df = 3;
  auto queries = corpus::QueryGenerator(qcfg, store, stats).Generate(25);
  for (const auto& q : queries) {
    auto a = (*grown)->Search(q.terms, 20, /*origin=*/1);
    auto b = (*scratch)->Search(q.terms, 20, /*origin=*/1);
    ASSERT_EQ(a.results.size(), b.results.size());
    for (size_t i = 0; i < a.results.size(); ++i) {
      EXPECT_EQ(a.results[i].doc, b.results[i].doc);
      EXPECT_NEAR(a.results[i].score, b.results[i].score, 1e-12);
    }
    EXPECT_EQ(a.cost.postings_fetched, b.cost.postings_fetched);
  }
}

TEST(IncrementalGrowthTest, CentralizedAddPeersEqualsFromScratchBuild) {
  corpus::SyntheticCorpus corpus = GrowthCorpus();
  corpus::DocumentStore store;
  corpus.FillStore(120, &store);
  auto grown = CentralizedBm25Engine::Build(store);
  ASSERT_TRUE(grown.ok());
  corpus.FillStore(240, &store);
  ASSERT_TRUE((*grown)->AddPeers(store, JoinRanges(120, 1, 120)).ok());
  EXPECT_EQ((*grown)->num_documents(), 240u);

  auto scratch = CentralizedBm25Engine::Build(store);
  ASSERT_TRUE(scratch.ok());
  EXPECT_EQ((*grown)->index().TotalPostings(),
            (*scratch)->index().TotalPostings());

  corpus::CollectionStats stats(store);
  corpus::QueryGenConfig qcfg;
  qcfg.min_term_df = 3;
  auto queries = corpus::QueryGenerator(qcfg, store, stats).Generate(25);
  for (const auto& q : queries) {
    auto a = (*grown)->Search(q.terms, 20);
    auto b = (*scratch)->Search(q.terms, 20);
    ASSERT_EQ(a.results.size(), b.results.size());
    for (size_t i = 0; i < a.results.size(); ++i) {
      EXPECT_EQ(a.results[i].doc, b.results[i].doc);
    }
  }
}

TEST(IncrementalGrowthTest, ExperimentSweepGrowsWithoutRebuilding) {
  // The figure-bench harness: advancing the sweep must JOIN peers, not
  // rebuild — observable through the engines' identity and growth stats.
  ExperimentSetup setup = ExperimentSetup::Tiny();
  ExperimentContext ctx(setup);

  auto first = ctx.EnginesAt(setup.initial_peers);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  HdkSearchEngine* low_before = first->hdk_low;
  EXPECT_EQ(first->hdk_low->last_growth().joined_peers, 0u);

  const uint32_t next = setup.initial_peers + setup.peer_step;
  auto second = ctx.EnginesAt(next);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  // Same engine object, grown in place.
  EXPECT_EQ(second->hdk_low, low_before);
  EXPECT_EQ(second->hdk_low->num_peers(), next);
  EXPECT_EQ(second->hdk_low->last_growth().joined_peers,
            static_cast<uint64_t>(setup.peer_step));
  EXPECT_GT(second->hdk_low->last_growth().delta_insertions, 0u);

  // Shrinking sweeps are rejected.
  EXPECT_FALSE(ctx.EnginesAt(setup.initial_peers).ok());
}

TEST(IncrementalGrowthTest, SmaxFourGrowthIsDeltaPrunedAndExact) {
  // The "larger keys" extension: with s_max = 4 the growth path uses the
  // generalized fresh-key-targeted walk at level 4 (it used to fall back
  // to a full rescan of every knowledge-gaining peer), and the grown
  // index must still equal a from-scratch build posting for posting.
  corpus::SyntheticCorpus corpus = GrowthCorpus();
  corpus::DocumentStore store;
  corpus.FillStore(120, &store);
  EngineConfig config = GrowthConfig();
  config.hdk.s_max = 4;
  // A larger DFmax keeps the growth wave's fresh-fact set sparse (few
  // keys cross), which is exactly when delta pruning must pay off.
  config.hdk.df_max = 24;
  config.hdk.rare_threshold = 24;
  auto grown = HdkSearchEngine::Build(config, store, SplitEvenly(120, 2));
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();
  const uint64_t level4_docs_before =
      (*grown)->indexing_report().levels[3].generation.documents_scanned;

  corpus.FillStore(240, &store);
  ASSERT_TRUE((*grown)->AddPeers(store, JoinRanges(120, 2, 60)).ok());
  const p2p::GrowthStats& g = (*grown)->last_growth();
  // The hard path ran: old peers gained knowledge and re-derived.
  EXPECT_GT(g.reclassified_keys, 0u);
  EXPECT_GT(g.rescanned_peers, 0u);

  // Delta-proportional growth cost: the growth step's level-4 scans must
  // stay strictly below the full-scan fallback's volume (each joining
  // peer's 60 documents scanned fully, plus 60 for every rescanned old
  // peer under the old fallback).
  const uint64_t level4_docs_delta =
      (*grown)->indexing_report().levels[3].generation.documents_scanned -
      level4_docs_before;
  EXPECT_LT(level4_docs_delta, 120u + g.rescanned_peers * 60u);

  auto scratch = HdkSearchEngine::Build(config, store, SplitEvenly(240, 4));
  ASSERT_TRUE(scratch.ok());
  ExpectSameContents((*scratch)->global_index().ExportContents(),
                     (*grown)->global_index().ExportContents());
}

}  // namespace
}  // namespace hdk::engine
