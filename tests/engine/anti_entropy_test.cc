// Anti-entropy replica sync end to end (sync/ wired through the HDK
// engine):
//
//   * lossy best-effort replica maintenance (dropped ReplicaPush /
//     ReplicaForget messages) leaves real divergence behind, the
//     divergence counter sees it, and one RunAntiEntropy() sweep heals
//     it — replicas exactly match the placement-derived desired state,
//     as a from-scratch build's would;
//   * a killed holder is skipped (no partial repair), and healed by the
//     next sweep after it revives;
//   * an undersized IBF budget provably degrades to the full-sync
//     fallback and still heals — never a wrong decode;
//   * sweeps are deterministic across thread counts and overlays, and
//     the kOff default engine remains divergence-free by construction;
//   * the interface contract: decorators forward, unreplicated engines
//     no-op, backends without a replicated index return Unimplemented,
//     and a snapshot round-trip restores reconciled replicas.
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/synthetic.h"
#include "engine/engine_factory.h"
#include "engine/fingerprint.h"
#include "engine/hdk_engine.h"
#include "engine/partition.h"
#include "net/fault.h"
#include "sync/sync.h"

namespace hdk::engine {
namespace {

corpus::SyntheticCorpus SyncCorpus() {
  corpus::SyntheticConfig cfg;
  cfg.seed = 4242;
  cfg.vocabulary_size = 3000;
  cfg.num_topics = 12;
  cfg.topic_width = 35;
  cfg.mean_doc_length = 50.0;
  cfg.topic_share = 0.7;
  return corpus::SyntheticCorpus(cfg);
}

HdkEngineConfig SyncConfig(OverlayKind overlay, size_t num_threads,
                           sync::SyncMode mode) {
  HdkEngineConfig config;
  config.hdk.df_max = 8;
  config.hdk.very_frequent_threshold = 450;
  config.hdk.window = 8;
  config.hdk.s_max = 3;
  config.overlay = overlay;
  config.num_threads = num_threads;
  config.replication = 2;
  config.sync.mode = mode;
  return config;
}

class AntiEntropyTest : public ::testing::TestWithParam<OverlayKind> {};

INSTANTIATE_TEST_SUITE_P(BothOverlays, AntiEntropyTest,
                         ::testing::Values(OverlayKind::kPGrid,
                                           OverlayKind::kChord),
                         [](const auto& info) {
                           return info.param == OverlayKind::kPGrid
                                      ? "pgrid"
                                      : "chord";
                         });

TEST_P(AntiEntropyTest, LostReplicaPushesAreDetectedAndHealed) {
  corpus::SyntheticCorpus corpus = SyncCorpus();
  corpus::DocumentStore store;
  corpus.FillStore(240, &store);

  sync::SyncStats sweep_by_threads[2];
  for (size_t ti = 0; ti < 2; ++ti) {
    const size_t threads = ti == 0 ? 1 : 4;
    SCOPED_TRACE(std::to_string(threads) + " threads");
    HdkEngineConfig config =
        SyncConfig(GetParam(), threads, sync::SyncMode::kIbf);
    config.faults = *net::FaultPlan::Parse("seed=7,loss.ReplicaPush=0.4");
    auto built =
        HdkSearchEngine::Build(config, store, SplitEvenly(240, 8));
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    auto engine = std::move(built).value();

    // The lossy best-effort pushes left replicas behind their primaries.
    EXPECT_GT(engine->global_index().missed_replica_pushes(), 0u);
    const uint64_t diverged_before =
        engine->global_index().CountReplicaDivergence();
    EXPECT_GT(diverged_before, 0u);

    auto sweep = engine->RunAntiEntropy();
    ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
    EXPECT_GT(sweep->pairs_checked, 0u);
    EXPECT_GT(sweep->pairs_diverged, 0u);
    EXPECT_EQ(sweep->pairs_unreachable, 0u);
    EXPECT_GT(sweep->ShippedPostings(), 0u);
    EXPECT_GT(sweep->sketch_bytes, 0u);
    // Healed: the replica maps are exactly the placement-derived desired
    // state — what a from-scratch build would hold.
    EXPECT_EQ(engine->global_index().CountReplicaDivergence(), 0u);

    // A second sweep finds nothing and ships nothing.
    auto again = engine->RunAntiEntropy();
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->pairs_diverged, 0u);
    EXPECT_EQ(again->ShippedPostings(), 0u);

    // Replica divergence never touches the published primaries: contents
    // are identical to a fault-free build.
    HdkEngineConfig clean =
        SyncConfig(GetParam(), threads, sync::SyncMode::kOff);
    auto reference =
        HdkSearchEngine::Build(clean, store, SplitEvenly(240, 8));
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(
        FingerprintContents(engine->global_index().ExportContents()),
        FingerprintContents((*reference)->global_index().ExportContents()));

    sweep_by_threads[ti] = *sweep;
  }
  // The sweep is thread-count invariant, counter for counter.
  EXPECT_EQ(sweep_by_threads[0], sweep_by_threads[1]);
}

TEST_P(AntiEntropyTest, LostForgetNoticesLeaveStaleCopiesSweepDropsThem) {
  corpus::SyntheticCorpus corpus = SyncCorpus();
  corpus::DocumentStore store;
  corpus.FillStore(320, &store);

  HdkEngineConfig config = SyncConfig(GetParam(), 1, sync::SyncMode::kIbf);
  // Forget notices travel when a term crosses the very-frequent cutoff
  // during growth and its keys are purged; lose nearly all of them, so
  // purged keys linger in the replica maps as stale copies.
  config.hdk.very_frequent_threshold = 250;
  auto plan = net::FaultPlan::Parse("seed=11,loss.ReplicaForget=0.95");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  config.faults = *plan;
  auto built = HdkSearchEngine::Build(config, store, SplitEvenly(160, 8));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto engine = std::move(built).value();

  ASSERT_TRUE(engine->AddPeers(store, {{160, 240}, {240, 320}}).ok());
  // The growth wave must actually have purged newly very-frequent terms,
  // or this test exercises nothing.
  ASSERT_GT(engine->last_growth().purged_keys, 0u);
  EXPECT_GT(engine->global_index().missed_replica_forgets(), 0u);
  EXPECT_GT(engine->global_index().CountReplicaDivergence(), 0u);

  auto sweep = engine->RunAntiEntropy();
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  EXPECT_GT(sweep->pairs_diverged, 0u);
  // Stale copies are dropped (either as decoded drops or inside a full
  // pair rewrite).
  EXPECT_GT(sweep->dropped_keys + sweep->full_syncs, 0u);
  EXPECT_EQ(engine->global_index().CountReplicaDivergence(), 0u);
}

TEST_P(AntiEntropyTest, DeadHolderIsSkippedAndHealedAfterRevival) {
  corpus::SyntheticCorpus corpus = SyncCorpus();
  corpus::DocumentStore store;
  corpus.FillStore(240, &store);

  HdkEngineConfig config = SyncConfig(GetParam(), 1, sync::SyncMode::kIbf);
  config.faults = *net::FaultPlan::Parse("seed=7,loss.ReplicaPush=0.4");
  auto built = HdkSearchEngine::Build(config, store, SplitEvenly(240, 8));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto engine = std::move(built).value();
  ASSERT_GT(engine->global_index().CountReplicaDivergence(), 0u);

  engine->fault_injector().KillPeer(3);
  auto partial = engine->RunAntiEntropy();
  ASSERT_TRUE(partial.ok());
  // Pairs touching the dead peer are skipped whole — no partial repair.
  EXPECT_GT(partial->pairs_unreachable, 0u);

  engine->fault_injector().RevivePeer(3);
  auto heal = engine->RunAntiEntropy();
  ASSERT_TRUE(heal.ok());
  EXPECT_EQ(heal->pairs_unreachable, 0u);
  EXPECT_EQ(engine->global_index().CountReplicaDivergence(), 0u);
}

TEST_P(AntiEntropyTest, UndersizedIbfFallsBackToFullSyncAndStillHeals) {
  corpus::SyntheticCorpus corpus = SyncCorpus();
  corpus::DocumentStore store;
  corpus.FillStore(240, &store);

  HdkEngineConfig config = SyncConfig(GetParam(), 1, sync::SyncMode::kIbf);
  // An 8-cell clamp cannot sketch the heavy divergence a 90% push loss
  // creates; every diverged pair must degrade to the full-sync path.
  config.sync.max_cells = 8;
  config.faults = *net::FaultPlan::Parse("seed=7,loss.ReplicaPush=0.9");
  auto built = HdkSearchEngine::Build(config, store, SplitEvenly(240, 8));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto engine = std::move(built).value();
  ASSERT_GT(engine->global_index().CountReplicaDivergence(), 0u);

  auto sweep = engine->RunAntiEntropy();
  ASSERT_TRUE(sweep.ok());
  EXPECT_GT(sweep->full_syncs, 0u);
  EXPECT_GT(sweep->full_postings, 0u);
  EXPECT_EQ(engine->global_index().CountReplicaDivergence(), 0u);
}

TEST_P(AntiEntropyTest, FullModeHealsButShipsMoreThanIbf) {
  corpus::SyntheticCorpus corpus = SyncCorpus();
  corpus::DocumentStore store;
  corpus.FillStore(240, &store);

  HdkEngineConfig config = SyncConfig(GetParam(), 1, sync::SyncMode::kIbf);
  config.faults = *net::FaultPlan::Parse("seed=7,loss.ReplicaPush=0.2");
  auto built = HdkSearchEngine::Build(config, store, SplitEvenly(240, 8));
  ASSERT_TRUE(built.ok());
  auto sweep = (*built)->RunAntiEntropy();
  ASSERT_TRUE(sweep.ok());
  EXPECT_EQ((*built)->global_index().CountReplicaDivergence(), 0u);
  // Full re-replication heals too, by re-shipping every replica holder's
  // whole bucket. At small divergence the IBF delta path ships far fewer
  // postings (the bench pins the exact ratio).
  const uint64_t full_postings =
      (config.replication - 1) *
      (*built)->global_index().TotalStoredPostings();
  EXPECT_LT(sweep->ShippedPostings(), full_postings);
}

TEST_P(AntiEntropyTest, OffModeEngineIsDivergenceFreeAndSweepConfirmsIt) {
  corpus::SyntheticCorpus corpus = SyncCorpus();
  corpus::DocumentStore store;
  corpus.FillStore(240, &store);

  // The kOff default maintains replicas silently and losslessly; an
  // explicit sweep (which reconciles via the sketch protocol) must find
  // every pair already in sync.
  HdkEngineConfig config = SyncConfig(GetParam(), 1, sync::SyncMode::kOff);
  auto built = HdkSearchEngine::Build(config, store, SplitEvenly(240, 8));
  ASSERT_TRUE(built.ok());
  EXPECT_EQ((*built)->global_index().CountReplicaDivergence(), 0u);
  auto sweep = (*built)->RunAntiEntropy();
  ASSERT_TRUE(sweep.ok());
  EXPECT_GT(sweep->pairs_checked, 0u);
  EXPECT_EQ(sweep->pairs_diverged, 0u);
  EXPECT_EQ(sweep->ShippedPostings(), 0u);
}

TEST(AntiEntropyInterfaceTest, UnreplicatedEngineSweepIsANoop) {
  corpus::SyntheticCorpus corpus = SyncCorpus();
  corpus::DocumentStore store;
  corpus.FillStore(120, &store);

  HdkEngineConfig config =
      SyncConfig(OverlayKind::kPGrid, 1, sync::SyncMode::kIbf);
  config.replication = 1;
  auto built = HdkSearchEngine::Build(config, store, SplitEvenly(120, 4));
  ASSERT_TRUE(built.ok());
  auto sweep = (*built)->RunAntiEntropy();
  ASSERT_TRUE(sweep.ok());
  EXPECT_EQ(*sweep, sync::SyncStats{});
}

TEST(AntiEntropyInterfaceTest, DecoratorForwardsOtherBackendsDecline) {
  corpus::SyntheticCorpus corpus = SyncCorpus();
  corpus::DocumentStore store;
  corpus.FillStore(120, &store);

  EngineConfig config;
  config.hdk.df_max = 8;
  config.hdk.very_frequent_threshold = 450;
  config.hdk.window = 8;
  config.hdk.s_max = 3;
  config.num_threads = 1;
  config.replication = 2;
  config.sync.mode = sync::SyncMode::kIbf;

  auto cached = MakeEngine("cached(hdk)", config, store,
                           SplitEvenly(120, 4));
  ASSERT_TRUE(cached.ok());
  auto sweep = (*cached)->RunAntiEntropy();
  EXPECT_TRUE(sweep.ok()) << sweep.status().ToString();

  auto centralized =
      MakeEngine("centralized", config, store, SplitEvenly(120, 4));
  ASSERT_TRUE(centralized.ok());
  EXPECT_EQ((*centralized)->RunAntiEntropy().status().code(),
            StatusCode::kUnimplemented);
}

TEST(AntiEntropySnapshotTest, RoundTripRestoresReconciledReplicas) {
  corpus::SyntheticCorpus corpus = SyncCorpus();
  corpus::DocumentStore store;
  corpus.FillStore(240, &store);

  HdkEngineConfig config =
      SyncConfig(OverlayKind::kPGrid, 1, sync::SyncMode::kIbf);
  config.faults = *net::FaultPlan::Parse("seed=7,loss.ReplicaPush=0.4");
  auto built = HdkSearchEngine::Build(config, store, SplitEvenly(240, 8));
  ASSERT_TRUE(built.ok());
  ASSERT_GT((*built)->global_index().CountReplicaDivergence(), 0u);

  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "anti_entropy.hdks")
          .string();
  ASSERT_TRUE((*built)->SaveSnapshot(path).ok());
  auto loaded = LoadEngineSnapshot(config, store, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Replicas are derived state, rebuilt on load — the restored engine
  // starts reconciled even though the writer was diverged.
  EXPECT_EQ((*loaded)->global_index().CountReplicaDivergence(), 0u);
  auto sweep = (*loaded)->RunAntiEntropy();
  ASSERT_TRUE(sweep.ok());
  EXPECT_EQ(sweep->pairs_diverged, 0u);
  EXPECT_EQ(
      FingerprintContents((*built)->global_index().ExportContents()),
      FingerprintContents((*loaded)->global_index().ExportContents()));
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace hdk::engine
