// Build and join goldens: a build followed by two join waves on the churn
// corpus, with every observable outcome of the indexing wave pinned to
// recorded constants — the published contents, the per-kind traffic
// (messages, postings, hops, bytes), every per-level IndexingReport field
// after each step, every GrowthStats field of each wave and the snapshot
// length — on both overlays, at 1 and 4
// threads, over a perfect transport and over one that loses half of the
// insertions and notifications. At 50% loss a contribution exhausts its
// send attempts often enough that the lossy history exercises the level
// barrier's redelivery. Any change to the insert/merge path that moves one
// message, one posting or one counter fails here.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "churn_golden.h"
#include "common/hash.h"
#include "engine/engine_snapshot.h"
#include "engine/fingerprint.h"
#include "engine/hdk_engine.h"
#include "engine/membership.h"
#include "engine/partition.h"
#include "net/fault.h"

namespace hdk::engine {
namespace {

EngineConfig GoldenConfig(OverlayKind overlay, bool lossy, size_t threads) {
  EngineConfig config;
  config.hdk.df_max = 8;
  // Terms cross Ff = 350 when the first wave joins, so its purge runs.
  config.hdk.very_frequent_threshold = 350;
  config.hdk.window = 8;
  config.hdk.s_max = 3;
  config.overlay = overlay;
  config.num_threads = threads;
  if (lossy) {
    config.faults = *net::FaultPlan::Parse(
        "seed=7,loss.InsertPostings=0.5,loss.NdkNotification=0.5");
  }
  return config;
}

uint64_t DigestGrowth(uint64_t h, const p2p::GrowthStats& g) {
  for (uint64_t v :
       {g.joined_peers, g.delta_documents, g.new_very_frequent_terms,
        g.purged_keys, g.reclassified_keys, g.migrated_keys,
        g.delta_insertions, g.delta_postings, g.rescanned_peers}) {
    h = HashCombine(h, v);
  }
  return h;
}

std::string DescribeGrowth(const p2p::GrowthStats& g) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "joined=%llu docs=%llu vf=%llu purged=%llu reclassified=%llu "
                "migrated=%llu inserted=%llu/%llu rescanned=%llu",
                (unsigned long long)g.joined_peers,
                (unsigned long long)g.delta_documents,
                (unsigned long long)g.new_very_frequent_terms,
                (unsigned long long)g.purged_keys,
                (unsigned long long)g.reclassified_keys,
                (unsigned long long)g.migrated_keys,
                (unsigned long long)g.delta_insertions,
                (unsigned long long)g.delta_postings,
                (unsigned long long)g.rescanned_peers);
  return buf;
}

std::string DescribeTraffic(const net::TrafficRecorder& traffic) {
  std::string out;
  for (size_t k = 0; k < net::kNumMessageKinds; ++k) {
    const auto kind = static_cast<net::MessageKind>(k);
    const net::TrafficCounters c = traffic.ByKind(kind);
    if (c.messages == 0) continue;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "\n  %s: messages=%llu postings=%llu "
                  "bytes=%llu",
                  std::string(net::MessageKindName(kind)).c_str(),
                  (unsigned long long)c.messages,
                  (unsigned long long)c.postings,
                  (unsigned long long)c.bytes);
    out += buf;
  }
  return out;
}

struct Golden {
  OverlayKind overlay;
  bool lossy;
  uint64_t contents;
  uint64_t traffic;
  /// The report after the build and after each wave.
  uint64_t reports;
  /// Both waves' GrowthStats.
  uint64_t growth;
  /// The snapshot's shard sections follow the thread count's shard
  /// layout, so its length is pinned per thread count.
  uint64_t snapshot_bytes_t1;
  uint64_t snapshot_bytes_t4;
};

// Recorded on the mutex-guarded pending-table insert path.
constexpr Golden kGoldens[] = {
    {OverlayKind::kPGrid, false, 0x9e52188a75e7042fULL, 0x792db781a9f587cdULL,
     0xdd8c63fb05072e1bULL, 0xa5d912d6c867bad9ULL, 2426408, 2427728},
    {OverlayKind::kChord, false, 0x9e52188a75e7042fULL, 0x3fb9c0e2573c38efULL,
     0xdd8c63fb05072e1bULL, 0x764af68dd444a23eULL, 2426400, 2427720},
    {OverlayKind::kPGrid, true, 0x9e52188a75e7042fULL, 0xae58f515496641cfULL,
     0xdd8c63fb05072e1bULL, 0xa5d912d6c867bad9ULL, 2426408, 2427728},
    {OverlayKind::kChord, true, 0x9e52188a75e7042fULL, 0xf0b7b63adf06896fULL,
     0xdd8c63fb05072e1bULL, 0x764af68dd444a23eULL, 2426400, 2427720},
};

const char* OverlayName(OverlayKind overlay) {
  return overlay == OverlayKind::kPGrid ? "pgrid" : "chord";
}

using GoldenParam = std::tuple<size_t /*golden*/, size_t /*threads*/>;

class BuildGoldenTest : public ::testing::TestWithParam<GoldenParam> {};

// 5 founders over 300 documents, then a 2-peer wave (60 documents each)
// that pushes terms over Ff, then a 2-peer wave over the next 120.
TEST_P(BuildGoldenTest, BuildAndJoinsMatchRecordedGoldens) {
  const auto [index, threads] = GetParam();
  const Golden& golden = kGoldens[index];
  const EngineConfig config =
      GoldenConfig(golden.overlay, golden.lossy, threads);

  corpus::SyntheticCorpus corpus = ChurnCorpus();
  corpus::DocumentStore store;
  corpus.FillStore(300, &store);
  auto built = HdkSearchEngine::Build(config, store, SplitEvenly(300, 5));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  HdkSearchEngine& engine = **built;

  uint64_t reports = DigestReport(engine.indexing_report());
  uint64_t growth = 0;
  std::string trace;
  for (DocId first : {300u, 420u}) {
    corpus.FillStore(first + 120, &store);
    ASSERT_TRUE(engine.ApplyMembership(store, JoinWave(first, 2, 60)).ok());
    reports = HashCombine(reports, DigestReport(engine.indexing_report()));
    growth = DigestGrowth(growth, engine.last_growth());
    trace += "\n  " + DescribeGrowth(engine.last_growth());
  }
  ASSERT_FALSE(engine.global_index().HasPendingContributions());

  const uint64_t contents =
      FingerprintContents(engine.global_index().ExportContents());
  const uint64_t traffic = FingerprintTraffic(*engine.traffic());

  const std::string path =
      (std::filesystem::path(::testing::TempDir()) /
       ("build_golden_" + std::to_string(index) + "_" +
        std::to_string(threads) + ".hdks"))
          .string();
  ASSERT_TRUE(engine.SaveSnapshot(path).ok());
  const uint64_t snapshot_bytes = std::filesystem::file_size(path);
  std::filesystem::remove(path);

  char got[256];
  std::snprintf(got, sizeof(got),
                "\n  got: 0x%016llxULL, 0x%016llxULL, 0x%016llxULL, "
                "0x%016llxULL, snapshot %llu",
                (unsigned long long)contents, (unsigned long long)traffic,
                (unsigned long long)reports, (unsigned long long)growth,
                (unsigned long long)snapshot_bytes);
  const std::string context =
      trace + DescribeTraffic(*engine.traffic()) + got;
  EXPECT_EQ(contents, golden.contents) << context;
  EXPECT_EQ(traffic, golden.traffic) << context;
  EXPECT_EQ(reports, golden.reports) << context;
  EXPECT_EQ(growth, golden.growth) << context;
  EXPECT_EQ(snapshot_bytes, threads == 1 ? golden.snapshot_bytes_t1
                                         : golden.snapshot_bytes_t4);
}

INSTANTIATE_TEST_SUITE_P(
    OverlaysTransportThreads, BuildGoldenTest,
    ::testing::Combine(::testing::Range<size_t>(0, std::size(kGoldens)),
                       ::testing::Values<size_t>(1, 4)),
    [](const auto& info) {
      const Golden& g = kGoldens[std::get<0>(info.param)];
      return std::string(OverlayName(g.overlay)) +
             (g.lossy ? "_lossy" : "_perfect") + "_threads_" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace hdk::engine
