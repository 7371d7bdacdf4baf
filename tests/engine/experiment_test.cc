#include "engine/experiment.h"

#include <gtest/gtest.h>

#include "engine/fingerprint.h"

namespace hdk::engine {
namespace {

TEST(ExperimentSetupTest, ScaledDefaultsDeriveThresholds) {
  ExperimentSetup s = ExperimentSetup::ScaledDefault();
  // 28 peers x 300 docs = 8,400 docs at the top of the sweep.
  EXPECT_EQ(s.MaxDocuments(), 8400u);
  // DFmax fractions mirror the paper's 400/140k and 500/140k.
  EXPECT_EQ(s.DfMaxLow(), 24u);
  EXPECT_EQ(s.DfMaxHigh(), 30u);
  EXPECT_GT(s.DeriveFf(), 1000u);
  EXPECT_LT(s.DeriveFf(), 100000u);
}

TEST(ExperimentSetupTest, PeerSweepMatchesPaper) {
  ExperimentSetup s = ExperimentSetup::ScaledDefault();
  EXPECT_EQ(s.PeerSweep(),
            (std::vector<uint32_t>{4, 8, 12, 16, 20, 24, 28}));
}

TEST(ExperimentSetupTest, MakeParamsUsesPaperConstants) {
  ExperimentSetup s = ExperimentSetup::ScaledDefault();
  HdkParams p = s.MakeParams(s.DfMaxLow());
  EXPECT_TRUE(p.Validate().ok());
  EXPECT_EQ(p.window, 20u);  // paper Table 2
  EXPECT_EQ(p.s_max, 3u);    // paper Table 2
  EXPECT_EQ(p.df_max, 24u);
}

TEST(ExperimentSetupTest, TinyIsSmallerButValid) {
  ExperimentSetup t = ExperimentSetup::Tiny();
  EXPECT_LT(t.MaxDocuments(), ExperimentSetup::ScaledDefault().MaxDocuments());
  EXPECT_TRUE(t.corpus.Validate().ok());
  EXPECT_TRUE(t.MakeParams(t.DfMaxLow()).Validate().ok());
}

TEST(ExperimentContextTest, GrowsMonotonically) {
  ExperimentContext ctx(ExperimentSetup::Tiny());
  const auto& s1 = ctx.GrowTo(50);
  EXPECT_EQ(s1.size(), 50u);
  const auto& s2 = ctx.GrowTo(100);
  EXPECT_EQ(s2.size(), 100u);
  // Growth is append-only: same object.
  EXPECT_EQ(&s1, &s2);
}

TEST(ExperimentContextTest, StatsTrackCurrentSize) {
  ExperimentContext ctx(ExperimentSetup::Tiny());
  const auto& stats = ctx.StatsFor(60);
  EXPECT_EQ(stats.num_documents(), 60u);
  const auto& stats2 = ctx.StatsFor(90);
  EXPECT_EQ(stats2.num_documents(), 90u);
}

TEST(ExperimentContextTest, QueriesMatchWorkloadShape) {
  ExperimentContext ctx(ExperimentSetup::Tiny());
  auto queries = ctx.MakeQueries(200, 40);
  ASSERT_GT(queries.size(), 10u);
  for (const auto& q : queries) {
    EXPECT_GE(q.size(), 2u);
    EXPECT_LE(q.size(), 8u);
  }
}

TEST(ExperimentContextTest, BuildEnginesAtTinyPoint) {
  ExperimentSetup setup = ExperimentSetup::Tiny();
  ExperimentContext ctx(setup);
  auto point = ctx.EnginesAt(setup.initial_peers);
  ASSERT_TRUE(point.ok()) << point.status().ToString();
  EXPECT_EQ(point->num_peers, setup.initial_peers);
  EXPECT_EQ(point->num_docs,
            static_cast<uint64_t>(setup.initial_peers) *
                setup.docs_per_peer);
  ASSERT_NE(point->hdk_low, nullptr);
  ASSERT_NE(point->hdk_high, nullptr);
  ASSERT_NE(point->st, nullptr);
  // The low-DFmax engine produces at least as many multi-term keys.
  EXPECT_GE(point->hdk_low->global_index().TotalKeys(),
            point->hdk_high->global_index().TotalKeys());
}

// The golden fixture: the tiny setup's full network at DFmax low and a
// 1000-query batch over it. The fingerprints were captured on the
// pre-flat-map code and pin every posting, score bit and cost counter;
// bench_micro_shard asserts the same fixture at the default scale.
TEST(ExperimentGoldenTest, TinyFixtureFingerprintsAtOneAndFourThreads) {
  const ExperimentSetup setup = ExperimentSetup::Tiny();
  ExperimentContext ctx(setup);
  const uint64_t docs = setup.MaxDocuments();
  const corpus::DocumentStore& store = ctx.GrowTo(docs);
  const std::vector<corpus::Query> queries = ctx.MakeQueries(docs, 1000);
  for (size_t threads : {1u, 4u}) {
    EngineConfig config = setup.MakeConfig(setup.DfMaxLow());
    config.num_threads = threads;
    auto built = HdkSearchEngine::Build(
        config, store, SplitEvenly(docs, setup.max_peers));
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    EXPECT_EQ(FingerprintContents((*built)->global_index().ExportContents()),
              9975936348412760733ULL)
        << "threads " << threads;
    EXPECT_EQ(FingerprintBatch((*built)->SearchBatch(queries, setup.top_k)),
              12651378162075581717ULL)
        << "threads " << threads;
  }
}

}  // namespace
}  // namespace hdk::engine
