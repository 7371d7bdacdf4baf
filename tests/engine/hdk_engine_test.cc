#include "engine/hdk_engine.h"

#include <gtest/gtest.h>

#include "corpus/synthetic.h"
#include "hdk/indexer.h"

namespace hdk::engine {
namespace {

class HdkEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus::SyntheticConfig cfg;
    cfg.seed = 555;
    cfg.vocabulary_size = 3000;
    cfg.num_topics = 12;
    cfg.topic_width = 35;
    cfg.mean_doc_length = 50.0;
    corpus::SyntheticCorpus corpus(cfg);
    corpus.FillStore(160, &store_);

    config_.hdk.df_max = 10;
    config_.hdk.very_frequent_threshold = 600;
    config_.hdk.window = 8;
    config_.hdk.s_max = 3;
  }

  corpus::DocumentStore store_;
  EngineConfig config_;
};

// SplitEvenly/JoinRanges are covered by tests/engine/partition_test.cc.

TEST_F(HdkEngineTest, BuildsAndSearches) {
  auto built =
      HdkSearchEngine::Build(config_, store_, SplitEvenly(160, 4));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto& engine = *built;
  EXPECT_EQ(engine->num_peers(), 4u);
  EXPECT_EQ(engine->num_documents(), 160u);

  std::vector<TermId> query{store_.Tokens(3)[0], store_.Tokens(3)[1]};
  auto exec = engine->Search(query, 20);
  EXPECT_LE(exec.results.size(), 20u);
}

TEST_F(HdkEngineTest, MatchesCentralizedReference) {
  auto built =
      HdkSearchEngine::Build(config_, store_, SplitEvenly(160, 4));
  ASSERT_TRUE(built.ok());

  corpus::CollectionStats stats(store_);
  hdk::CentralizedHdkIndexer reference(config_.hdk);
  auto expected = reference.Build(store_, stats);
  ASSERT_TRUE(expected.ok());

  auto actual = (*built)->global_index().ExportContents();
  EXPECT_EQ(actual.size(), expected->size());
  EXPECT_EQ(actual.StoredPostings(), expected->StoredPostings());
}

TEST_F(HdkEngineTest, PerPeerMetricsConsistent) {
  auto built =
      HdkSearchEngine::Build(config_, store_, SplitEvenly(160, 4));
  ASSERT_TRUE(built.ok());
  auto& engine = *built;

  EXPECT_NEAR(engine->StoredPostingsPerPeer() * 4.0,
              static_cast<double>(
                  engine->global_index().TotalStoredPostings()),
              1e-6);
  EXPECT_NEAR(
      engine->InsertedPostingsPerPeer() * 4.0,
      static_cast<double>(engine->indexing_report().TotalInsertedPostings()),
      1e-6);
  // HDK indexing inserts more than it stores (NDK truncation).
  EXPECT_GE(engine->InsertedPostingsPerPeer(),
            engine->StoredPostingsPerPeer());
}

TEST_F(HdkEngineTest, SearchRotatesOriginByDefault) {
  auto built =
      HdkSearchEngine::Build(config_, store_, SplitEvenly(160, 4));
  ASSERT_TRUE(built.ok());
  auto& engine = *built;
  std::vector<TermId> query{store_.Tokens(0)[0]};
  // Rotation must not affect results.
  auto a = engine->Search(query, 10);
  auto b = engine->Search(query, 10);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].doc, b.results[i].doc);
  }
}

TEST_F(HdkEngineTest, RejectsInvalidConfig) {
  EngineConfig bad = config_;
  bad.hdk.df_max = 0;
  EXPECT_FALSE(HdkSearchEngine::Build(bad, store_, SplitEvenly(160, 4)).ok());
  EXPECT_FALSE(HdkSearchEngine::Build(config_, store_, {}).ok());
}

TEST_F(HdkEngineTest, ChordOverlayWorksToo) {
  EngineConfig chord = config_;
  chord.overlay = OverlayKind::kChord;
  auto built = HdkSearchEngine::Build(chord, store_, SplitEvenly(160, 4));
  ASSERT_TRUE(built.ok());
  std::vector<TermId> query{store_.Tokens(0)[0], store_.Tokens(0)[2]};
  auto exec = (*built)->Search(query, 10);
  EXPECT_LE(exec.results.size(), 10u);
}

}  // namespace
}  // namespace hdk::engine
