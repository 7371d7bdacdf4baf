// The snapshot store's identity contract: an engine restored from a
// snapshot is indistinguishable from the instance that was saved —
// posting-for-posting in the published global index, counter-for-counter
// in the traffic recorder, bit-for-bit in ranked results — on both
// overlays and at every thread count, including ACROSS thread counts
// (the shard layout is re-routed on load when it differs). A restored
// engine also supports the full membership lifecycle: growth waves and
// join/leave/join churn behave exactly as on a never-persisted engine.
#include <cstddef>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/query_gen.h"
#include "corpus/stats.h"
#include "corpus/synthetic.h"
#include "engine/engine_factory.h"
#include "engine/engine_snapshot.h"
#include "engine/fingerprint.h"
#include "engine/hdk_engine.h"
#include "engine/membership.h"
#include "engine/partition.h"
#include "net/traffic.h"

namespace hdk::engine {
namespace {

corpus::SyntheticCorpus TestCorpus() {
  corpus::SyntheticConfig cfg;
  cfg.seed = 2026;
  cfg.vocabulary_size = 2500;
  cfg.num_topics = 10;
  cfg.topic_width = 30;
  cfg.mean_doc_length = 45.0;
  cfg.topic_share = 0.7;
  return corpus::SyntheticCorpus(cfg);
}

EngineConfig Config(OverlayKind overlay, size_t threads) {
  EngineConfig config;
  config.hdk.df_max = 9;
  config.hdk.very_frequent_threshold = 450;
  config.hdk.window = 8;
  config.hdk.s_max = 3;
  config.overlay = overlay;
  config.num_threads = threads;
  return config;
}

std::string SnapshotPath(const char* name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

std::vector<corpus::Query> TestQueries(const corpus::DocumentStore& store,
                                       size_t n) {
  corpus::CollectionStats stats(store);
  corpus::QueryGenConfig qcfg;
  qcfg.min_term_df = 3;
  return corpus::QueryGenerator(qcfg, store, stats).Generate(n);
}

/// Asserts full observable identity between two engines: exported index,
/// per-kind traffic, scalar accounting, and a ranked query batch.
void ExpectSameEngine(HdkSearchEngine& want, HdkSearchEngine& got,
                      const std::vector<corpus::Query>& queries) {
  EXPECT_EQ(want.num_peers(), got.num_peers());
  EXPECT_EQ(want.num_documents(), got.num_documents());
  EXPECT_EQ(want.StoredPostingsPerPeer(), got.StoredPostingsPerPeer());
  EXPECT_EQ(want.InsertedPostingsPerPeer(), got.InsertedPostingsPerPeer());
  EXPECT_EQ(FingerprintContents(want.global_index().ExportContents()),
            FingerprintContents(got.global_index().ExportContents()));
  EXPECT_EQ(FingerprintTraffic(*want.traffic()),
            FingerprintTraffic(*got.traffic()));
  // Queries on the restored engine produce bit-identical rankings AND
  // advance the traffic counters identically.
  const BatchResponse a = want.SearchBatch(queries, 10);
  const BatchResponse b = got.SearchBatch(queries, 10);
  EXPECT_EQ(FingerprintBatch(a), FingerprintBatch(b));
  EXPECT_EQ(FingerprintTraffic(*want.traffic()),
            FingerprintTraffic(*got.traffic()));
}

class SnapshotIdentityTest : public ::testing::TestWithParam<OverlayKind> {};

TEST_P(SnapshotIdentityTest, SaveLoadIsFingerprintIdentical) {
  corpus::SyntheticCorpus corpus = TestCorpus();
  corpus::DocumentStore store;
  corpus.FillStore(160, &store);
  const auto queries = TestQueries(store, 20);

  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const EngineConfig config = Config(GetParam(), threads);
    auto built = HdkSearchEngine::Build(config, store, SplitEvenly(160, 4));
    ASSERT_TRUE(built.ok()) << built.status().ToString();

    const std::string path = SnapshotPath("snapshot_identity.hdks");
    ASSERT_TRUE((*built)->SaveSnapshot(path).ok());
    auto loaded = LoadEngineSnapshot(config, store, path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

    ExpectSameEngine(**built, **loaded, queries);
  }
}

TEST_P(SnapshotIdentityTest, LoadsAcrossThreadCounts) {
  // A snapshot written by a parallel engine (sharded index) restores into
  // a serial one (single shard) and vice versa — entries are re-routed to
  // the loader's shard layout.
  corpus::SyntheticCorpus corpus = TestCorpus();
  corpus::DocumentStore store;
  corpus.FillStore(160, &store);
  const auto queries = TestQueries(store, 20);

  for (auto [save_threads, load_threads] :
       {std::pair<size_t, size_t>{4, 1}, std::pair<size_t, size_t>{1, 4}}) {
    SCOPED_TRACE("saved at " + std::to_string(save_threads) +
                 ", loaded at " + std::to_string(load_threads));
    auto built = HdkSearchEngine::Build(Config(GetParam(), save_threads),
                                        store, SplitEvenly(160, 4));
    ASSERT_TRUE(built.ok()) << built.status().ToString();

    const std::string path = SnapshotPath("snapshot_cross_threads.hdks");
    ASSERT_TRUE((*built)->SaveSnapshot(path).ok());
    // The config hash deliberately excludes the thread count, so this is
    // a compatible load, not a rejected one.
    auto loaded =
        LoadEngineSnapshot(Config(GetParam(), load_threads), store, path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

    ExpectSameEngine(**built, **loaded, queries);
  }
}

TEST_P(SnapshotIdentityTest, RestoredEngineGrowsAndChurnsIdentically) {
  // load -> Grow -> churn must be indistinguishable from the same
  // lifecycle on an engine that was never persisted.
  corpus::SyntheticCorpus corpus = TestCorpus();
  corpus::DocumentStore store;
  corpus.FillStore(320, &store);

  const EngineConfig config = Config(GetParam(), 1);
  auto built = HdkSearchEngine::Build(config, store, SplitEvenly(160, 4));
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  const std::string path = SnapshotPath("snapshot_lifecycle.hdks");
  ASSERT_TRUE((*built)->SaveSnapshot(path).ok());
  auto loaded = LoadEngineSnapshot(config, store, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  for (HdkSearchEngine* engine : {built->get(), loaded->get()}) {
    ASSERT_TRUE(
        engine->ApplyMembership(store, JoinWave(160, 2, 40)).ok());
    std::vector<MembershipEvent> churn;
    churn.push_back(MembershipEvent::Join(DocRange{240, 280}));
    churn.push_back(MembershipEvent::Leave(1));
    churn.push_back(MembershipEvent::Join(DocRange{280, 320}));
    ASSERT_TRUE(engine->ApplyMembership(store, churn).ok());
  }

  ExpectSameEngine(**built, **loaded, TestQueries(store, 20));

  // And a post-churn snapshot of the restored engine round-trips again:
  // persistence composes with the membership lifecycle in both orders.
  const std::string again = SnapshotPath("snapshot_lifecycle2.hdks");
  ASSERT_TRUE((*loaded)->SaveSnapshot(again).ok());
  auto reloaded = LoadEngineSnapshot(config, store, again);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ExpectSameEngine(**loaded, **reloaded, TestQueries(store, 10));
}

TEST_P(SnapshotIdentityTest, FactoryRestoreComposesDecorators) {
  corpus::SyntheticCorpus corpus = TestCorpus();
  corpus::DocumentStore store;
  corpus.FillStore(160, &store);
  const auto queries = TestQueries(store, 10);

  const EngineConfig config = Config(GetParam(), 1);

  auto built =
      MakeEngine("cached(hdk)", config, store, SplitEvenly(160, 4));
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  // SaveSnapshot passes through the decorator to the inner engine...
  const std::string path = SnapshotPath("snapshot_factory.hdks");
  ASSERT_TRUE((*built)->SaveSnapshot(path).ok());

  // ...and the factory restores the backend then re-applies the stack.
  auto loaded = MakeEngine("cached(hdk)", config, store, SnapshotFile{path});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->name(), "cached(hdk)");
  EXPECT_EQ((*built)->num_peers(), (*loaded)->num_peers());
  EXPECT_EQ(FingerprintBatch((*built)->SearchBatch(queries, 10)),
            FingerprintBatch((*loaded)->SearchBatch(queries, 10)));

  // Backends without snapshot support refuse cleanly.
  auto centralized =
      MakeEngine("centralized", config, store, SnapshotFile{path});
  ASSERT_FALSE(centralized.ok());
  EXPECT_EQ(centralized.status().code(), StatusCode::kUnimplemented);
}

TEST_P(SnapshotIdentityTest, FactoryRestoreKeepsTheWholeConfig) {
  // The snapshot hashes only the index-shaping fields; the transport
  // fields below must still reach the restored engine through the
  // spec-based load, or the loaded network would run fault-free and
  // unreplicated behind the caller's back.
  corpus::SyntheticCorpus corpus = TestCorpus();
  corpus::DocumentStore store;
  corpus.FillStore(240, &store);

  EngineConfig config = Config(GetParam(), 2);
  config.replication = 2;
  config.faults = *net::FaultPlan::Parse("seed=7,loss.ReplicaPush=0.4");
  config.sync.min_cells = 32;
  config.sync.max_cells = 2048;

  auto built = MakeEngine("hdk", config, store, SplitEvenly(160, 4));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const std::string path = SnapshotPath("snapshot_config.hdks");
  ASSERT_TRUE((*built)->SaveSnapshot(path).ok());

  auto loaded = MakeEngine("hdk", config, store, SnapshotFile{path});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto* engine = dynamic_cast<HdkSearchEngine*>(loaded->get());
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->config().replication, 2u);
  EXPECT_EQ(engine->config().faults, config.faults);
  EXPECT_EQ(engine->config().sync, config.sync);
  EXPECT_EQ(engine->config().num_threads, 2u);

  // The lossy plan is live on the restored transport: a join wave's
  // replica pushes go missing, and one sweep heals every pair.
  ASSERT_TRUE(
      engine->ApplyMembership(store, JoinWave(160, 2, 40)).ok());
  EXPECT_GT(engine->global_index().CountReplicaDivergence(), 0u);
  auto sweep = engine->RunAntiEntropy();
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  EXPECT_GT(sweep->pairs_diverged, 0u);
  EXPECT_EQ(engine->global_index().CountReplicaDivergence(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    BothOverlays, SnapshotIdentityTest,
    ::testing::Values(OverlayKind::kPGrid, OverlayKind::kChord),
    [](const ::testing::TestParamInfo<OverlayKind>& info) {
      return info.param == OverlayKind::kPGrid ? "pgrid" : "chord";
    });

}  // namespace
}  // namespace hdk::engine
