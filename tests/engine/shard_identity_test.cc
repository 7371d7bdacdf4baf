// The sharded global index's determinism contract: the HDK engine's
// published index and every traffic counter are identical at every thread
// count (and therefore every shard count — the heuristic picks 1 shard at
// num_threads == 1 and a pow2 multiple of the worker count otherwise) for
// a fresh build, a growth wave, and a join/leave/join churn sequence, on
// both overlays — and so is every protocol counter reduced from per-task
// partials (the indexing report and the departure repair's stats). Runs
// in the CI ThreadSanitizer job: the shard-parallel EndLevel/
// InsertPostings merge path and the peer-parallel departure replay are
// exactly what it stresses.
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/synthetic.h"
#include "engine/hdk_engine.h"
#include "engine/membership.h"
#include "engine/partition.h"
#include "expect_departure.h"
#include "hdk/indexer.h"
#include "net/traffic.h"

namespace hdk::engine {
namespace {

corpus::SyntheticCorpus TestCorpus() {
  corpus::SyntheticConfig cfg;
  cfg.seed = 4242;
  cfg.vocabulary_size = 2500;
  cfg.num_topics = 10;
  cfg.topic_width = 30;
  cfg.mean_doc_length = 45.0;
  cfg.topic_share = 0.7;
  return corpus::SyntheticCorpus(cfg);
}

HdkEngineConfig Config(OverlayKind overlay, size_t threads) {
  HdkEngineConfig config;
  config.hdk.df_max = 9;
  config.hdk.very_frequent_threshold = 450;
  config.hdk.window = 8;
  config.hdk.s_max = 3;
  config.overlay = overlay;
  config.num_threads = threads;
  return config;
}

/// Everything the determinism contract covers, captured after one
/// lifecycle stage.
struct StageSnapshot {
  std::string stage;
  hdk::HdkIndexContents contents;
  std::vector<net::TrafficCounters> by_kind;
  uint64_t total_keys = 0;
  uint64_t stored_postings = 0;
  uint64_t reclassified = 0;  // cumulative growth observability
  p2p::DepartureStats departure;  // the latest departure repair
  p2p::IndexingReport report;     // cumulative per-level protocol report
};

StageSnapshot Capture(const std::string& stage,
                      const HdkSearchEngine& engine) {
  StageSnapshot snap;
  snap.stage = stage;
  snap.contents = engine.global_index().ExportContents();
  for (size_t k = 0; k < net::kNumMessageKinds; ++k) {
    snap.by_kind.push_back(
        engine.traffic()->ByKind(static_cast<net::MessageKind>(k)));
  }
  snap.total_keys = engine.global_index().TotalKeys();
  snap.stored_postings = engine.global_index().TotalStoredPostings();
  snap.reclassified = engine.last_growth().reclassified_keys;
  snap.departure = engine.last_departure();
  snap.report = engine.indexing_report();
  return snap;
}

void ExpectSameSnapshot(const StageSnapshot& want, const StageSnapshot& got,
                        size_t threads) {
  SCOPED_TRACE("stage '" + want.stage + "' at " +
               std::to_string(threads) + " threads");
  EXPECT_EQ(want.total_keys, got.total_keys);
  EXPECT_EQ(want.stored_postings, got.stored_postings);
  EXPECT_EQ(want.reclassified, got.reclassified);
  ExpectSameDepartureStats(want.departure, got.departure);
  ASSERT_EQ(want.report.levels.size(), got.report.levels.size());
  for (size_t l = 0; l < want.report.levels.size(); ++l) {
    SCOPED_TRACE("report level " + std::to_string(l + 1));
    const p2p::ProtocolLevelStats& a = want.report.levels[l];
    const p2p::ProtocolLevelStats& b = got.report.levels[l];
    EXPECT_EQ(a.keys_inserted, b.keys_inserted);
    EXPECT_EQ(a.postings_inserted, b.postings_inserted);
    EXPECT_EQ(a.notifications, b.notifications);
    EXPECT_EQ(a.hdks, b.hdks);
    EXPECT_EQ(a.ndks, b.ndks);
  }
  EXPECT_EQ(want.report.inserted_postings_per_peer,
            got.report.inserted_postings_per_peer);
  // Posting-for-posting identity of the published index.
  ASSERT_EQ(want.contents.size(), got.contents.size());
  for (const auto& [key, entry] : want.contents.entries()) {
    const hdk::KeyEntry* other = got.contents.Find(key);
    ASSERT_NE(other, nullptr) << "missing key " << key.ToString();
    EXPECT_EQ(entry.global_df, other->global_df) << key.ToString();
    EXPECT_EQ(entry.is_hdk, other->is_hdk) << key.ToString();
    EXPECT_EQ(entry.postings, other->postings) << key.ToString();
  }
  // Message-for-message traffic identity, per message kind.
  ASSERT_EQ(want.by_kind.size(), got.by_kind.size());
  for (size_t k = 0; k < want.by_kind.size(); ++k) {
    EXPECT_EQ(want.by_kind[k], got.by_kind[k])
        << net::MessageKindName(static_cast<net::MessageKind>(k));
  }
}

/// Runs the full lifecycle — fresh build, growth wave, join/leave/join
/// churn — at the given thread count and snapshots after every stage.
std::vector<StageSnapshot> RunLifecycle(OverlayKind overlay, size_t threads,
                                        corpus::DocumentStore& store) {
  std::vector<StageSnapshot> snaps;

  // Fresh build: 4 peers, 160 documents.
  auto built = HdkSearchEngine::Build(Config(overlay, threads), store,
                                      SplitEvenly(160, 4));
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  if (!built.ok()) return snaps;
  std::unique_ptr<HdkSearchEngine> engine = std::move(built).value();
  if (threads > 1) {
    // The parallel configurations must actually exercise sharding.
    EXPECT_GT(engine->global_index().num_shards(), 1u);
  } else {
    EXPECT_EQ(engine->global_index().num_shards(), 1u);
  }
  snaps.push_back(Capture("fresh build", *engine));

  // Growth wave: 2 peers join with 40 documents each.
  EXPECT_TRUE(
      engine->ApplyMembership(store, JoinWave(160, 2, 40)).ok());
  snaps.push_back(Capture("growth wave", *engine));

  // Churn: join / leave / join.
  std::vector<MembershipEvent> churn;
  churn.push_back(MembershipEvent::Join(DocRange{240, 280}));
  churn.push_back(MembershipEvent::Leave(1));
  churn.push_back(MembershipEvent::Join(DocRange{280, 320}));
  EXPECT_TRUE(engine->ApplyMembership(store, churn).ok());
  snaps.push_back(Capture("join/leave/join churn", *engine));
  return snaps;
}

class ShardIdentityTest : public ::testing::TestWithParam<OverlayKind> {};

TEST_P(ShardIdentityTest, LifecycleIdenticalAcrossThreadCounts) {
  corpus::SyntheticCorpus corpus = TestCorpus();
  corpus::DocumentStore store;
  corpus.FillStore(320, &store);

  const std::vector<StageSnapshot> reference =
      RunLifecycle(GetParam(), /*threads=*/1, store);
  ASSERT_EQ(reference.size(), 3u);

  for (size_t threads : {size_t{2}, size_t{4}}) {
    const std::vector<StageSnapshot> got =
        RunLifecycle(GetParam(), threads, store);
    ASSERT_EQ(got.size(), reference.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      ExpectSameSnapshot(reference[i], got[i], threads);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothOverlays, ShardIdentityTest,
    ::testing::Values(OverlayKind::kPGrid, OverlayKind::kChord),
    [](const ::testing::TestParamInfo<OverlayKind>& info) {
      return info.param == OverlayKind::kPGrid ? "pgrid" : "chord";
    });

}  // namespace
}  // namespace hdk::engine
