// Departure-repair goldens: a fixed join/leave history on the churn
// corpus whose every observable outcome is pinned to recorded constants
// — the published contents, the per-kind traffic, every DepartureStats
// counter of every departure and the per-level IndexingReport — on both
// overlays, with and without replication (replication 2 under lossy
// replica pushes), at 1 and 4 threads. The history reaches every hard
// departure path: Ff re-admission (the join pushes terms over Ff, the
// first departure pulls them back under), reverse reclassification,
// retraction and fragment migration. Any change to the repair that moves
// one message or one counter fails here.
//
// The file also pins the per-peer protocol state a departure leaves
// behind (oracle facts, published keys, published documents) against a
// from-scratch build over the surviving ranges, and a snapshot round trip
// of the churned engine.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "corpus/synthetic.h"
#include "engine/engine_snapshot.h"
#include "engine/fingerprint.h"
#include "engine/hdk_engine.h"
#include "engine/membership.h"
#include "engine/partition.h"
#include "net/fault.h"

namespace hdk::engine {
namespace {

corpus::SyntheticCorpus ChurnCorpus() {
  corpus::SyntheticConfig cfg;
  cfg.seed = 31337;
  cfg.vocabulary_size = 3000;
  cfg.num_topics = 12;
  cfg.topic_width = 35;
  cfg.mean_doc_length = 50.0;
  cfg.topic_share = 0.7;
  return corpus::SyntheticCorpus(cfg);
}

EngineConfig GoldenConfig(OverlayKind overlay, uint32_t replication,
                             size_t threads) {
  EngineConfig config;
  config.hdk.df_max = 8;
  // Four terms cross Ff = 350 when the first wave joins (cf 360-487 over
  // 420 documents); departing the first joiner pulls three of them back
  // under it.
  config.hdk.very_frequent_threshold = 350;
  config.hdk.window = 8;
  config.hdk.s_max = 3;
  config.overlay = overlay;
  config.num_threads = threads;
  config.replication = replication;
  if (replication > 1) {
    config.faults = *net::FaultPlan::Parse("seed=7,loss.ReplicaPush=0.3");
  }
  return config;
}

uint64_t DigestSync(uint64_t h, const sync::SyncStats& s) {
  for (uint64_t v :
       {s.pairs_checked, s.pairs_diverged, s.pairs_unreachable, s.messages,
        s.sketch_messages, s.sketch_bytes, s.estimated_diff, s.decoded_diff,
        s.delta_keys, s.delta_postings, s.dropped_keys, s.full_syncs,
        s.full_keys, s.full_postings}) {
    h = HashCombine(h, v);
  }
  return h;
}

uint64_t DigestDeparture(uint64_t h, const p2p::DepartureStats& d) {
  for (uint64_t v :
       {static_cast<uint64_t>(d.departed), d.removed_contributions,
        d.removed_postings, d.erased_keys, d.retracted_keys,
        d.reverse_reclassified, d.repaired_keys, d.migrated_keys,
        d.moved_postings, d.readmitted_terms, d.forget_notifications,
        d.repair_insertions, d.repair_postings, d.rescanned_peers}) {
    h = HashCombine(h, v);
  }
  return DigestSync(h, d.replica_sync);
}

uint64_t DigestReport(const p2p::IndexingReport& report) {
  uint64_t h = HashCombine(Mix64(report.levels.size()),
                           report.excluded_very_frequent_terms);
  for (const p2p::ProtocolLevelStats& l : report.levels) {
    for (uint64_t v :
         {static_cast<uint64_t>(l.level), l.keys_inserted,
          l.postings_inserted, l.hdks, l.ndks, l.notifications,
          l.generation.documents_scanned, l.generation.positions_scanned,
          l.generation.formations, l.generation.pruned_candidates}) {
      h = HashCombine(h, v);
    }
  }
  for (uint64_t v : report.inserted_postings_per_peer) h = HashCombine(h, v);
  return h;
}

std::string DescribeDeparture(const p2p::DepartureStats& d) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "departed=%u removed=%llu/%llu erased=%llu retracted=%llu "
      "reverse=%llu repaired=%llu migrated=%llu moved=%llu readmitted=%llu "
      "forgets=%llu repair_ins=%llu/%llu rescanned=%llu sync_msgs=%llu "
      "sync_diverged=%llu",
      d.departed, (unsigned long long)d.removed_contributions,
      (unsigned long long)d.removed_postings,
      (unsigned long long)d.erased_keys, (unsigned long long)d.retracted_keys,
      (unsigned long long)d.reverse_reclassified,
      (unsigned long long)d.repaired_keys,
      (unsigned long long)d.migrated_keys,
      (unsigned long long)d.moved_postings,
      (unsigned long long)d.readmitted_terms,
      (unsigned long long)d.forget_notifications,
      (unsigned long long)d.repair_insertions,
      (unsigned long long)d.repair_postings,
      (unsigned long long)d.rescanned_peers,
      (unsigned long long)d.replica_sync.messages,
      (unsigned long long)d.replica_sync.pairs_diverged);
  return buf;
}

/// What one run of the golden history produced.
struct HistoryOutcome {
  std::unique_ptr<HdkSearchEngine> engine;
  uint64_t departures_digest = 0;
  /// Summed over the departures: proof the hard paths ran.
  p2p::DepartureStats totals;
  std::vector<std::string> trace;
};

// The fixed history: 5 founders (300 docs), a 2-peer join wave that
// pushes four terms over Ff, the departure of the first joiner (Ff
// re-admission, reverse reclassification, retraction), a middle founder's
// departure (renumbering), a 1-peer join wave and the departure of
// peer 0.
void RunHistory(const EngineConfig& config, corpus::DocumentStore& store,
                HistoryOutcome* out) {
  corpus::SyntheticCorpus corpus = ChurnCorpus();
  corpus.FillStore(300, &store);
  auto built = HdkSearchEngine::Build(config, store, SplitEvenly(300, 5));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  out->engine = std::move(built).value();
  HdkSearchEngine& engine = *out->engine;

  uint64_t digest = 0;
  auto leave = [&](PeerId peer) {
    ASSERT_TRUE(
        engine.ApplyMembership(store, {MembershipEvent::Leave(peer)}).ok());
    const p2p::DepartureStats& d = engine.last_departure();
    digest = DigestDeparture(digest, d);
    out->trace.push_back(DescribeDeparture(d));
    p2p::DepartureStats& t = out->totals;
    t.readmitted_terms += d.readmitted_terms;
    t.reverse_reclassified += d.reverse_reclassified;
    t.retracted_keys += d.retracted_keys;
    t.migrated_keys += d.migrated_keys;
    t.forget_notifications += d.forget_notifications;
    t.repair_insertions += d.repair_insertions;
  };

  corpus.FillStore(420, &store);
  ASSERT_TRUE(engine.ApplyMembership(store, JoinWave(300, 2, 60)).ok());
  ASSERT_GT(engine.last_growth().new_very_frequent_terms, 0u);
  ASSERT_NO_FATAL_FAILURE(leave(5));
  ASSERT_NO_FATAL_FAILURE(leave(1));
  corpus.FillStore(480, &store);
  ASSERT_TRUE(engine.ApplyMembership(store, JoinWave(420, 1, 60)).ok());
  ASSERT_NO_FATAL_FAILURE(leave(0));
  out->departures_digest = digest;
}

struct Golden {
  OverlayKind overlay;
  uint32_t replication;
  uint64_t contents;
  uint64_t traffic;
  uint64_t departures;
  uint64_t report;
  /// The snapshot's shard sections follow the thread count's shard
  /// layout, so its length is pinned per thread count.
  uint64_t snapshot_bytes_t1;
  uint64_t snapshot_bytes_t4;
};

// Recorded on the ledger-replay departure repair this in-place repair
// replaced; both must agree message for message.
constexpr Golden kGoldens[] = {
    {OverlayKind::kPGrid, 1, 0xdf1f364b5ea85a81ULL, 0x0ee99e6383a1c9d9ULL,
     0xd53bccbfe95a5233ULL, 0x2b32135d4f3e7b73ULL, 4389136, 4393216},
    {OverlayKind::kChord, 1, 0xdf1f364b5ea85a81ULL, 0x46f9a7073e98c676ULL,
     0xf140c83ecb2a972aULL, 0x2b32135d4f3e7b73ULL, 4389136, 4393224},
    {OverlayKind::kPGrid, 2, 0xdf1f364b5ea85a81ULL, 0xb71c51cf3e52d4a5ULL,
     0xfedaa32d045952faULL, 0x2b32135d4f3e7b73ULL, 4389136, 4393216},
    {OverlayKind::kChord, 2, 0xdf1f364b5ea85a81ULL, 0x78e626065e8c1ee1ULL,
     0xb0dcdb1a15e04690ULL, 0x2b32135d4f3e7b73ULL, 4389136, 4393224},
};

const char* OverlayName(OverlayKind overlay) {
  return overlay == OverlayKind::kPGrid ? "pgrid" : "chord";
}

std::string SnapshotPath(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

using GoldenParam = std::tuple<size_t /*golden*/, size_t /*threads*/>;

class DepartureGoldenTest : public ::testing::TestWithParam<GoldenParam> {};

TEST_P(DepartureGoldenTest, HistoryMatchesRecordedGoldens) {
  const auto [index, threads] = GetParam();
  const Golden& golden = kGoldens[index];
  corpus::DocumentStore store;
  HistoryOutcome run;
  ASSERT_NO_FATAL_FAILURE(RunHistory(
      GoldenConfig(golden.overlay, golden.replication, threads), store,
      &run));
  HdkSearchEngine& engine = *run.engine;

  // The history reaches every hard departure path.
  EXPECT_GT(run.totals.readmitted_terms, 0u);
  EXPECT_GT(run.totals.reverse_reclassified, 0u);
  EXPECT_GT(run.totals.retracted_keys, 0u);
  EXPECT_GT(run.totals.migrated_keys, 0u);
  EXPECT_GT(run.totals.forget_notifications, 0u);
  EXPECT_GT(run.totals.repair_insertions, 0u);

  const uint64_t contents =
      FingerprintContents(engine.global_index().ExportContents());
  const uint64_t traffic = FingerprintTraffic(*engine.traffic());
  const uint64_t report = DigestReport(engine.indexing_report());

  const std::string path = SnapshotPath(
      "departure_golden_" + std::to_string(index) + "_" +
      std::to_string(threads) + ".hdks");
  ASSERT_TRUE(engine.SaveSnapshot(path).ok());
  const uint64_t snapshot_bytes = std::filesystem::file_size(path);
  auto loaded = LoadEngineSnapshot(engine.config(), store, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(FingerprintContents((*loaded)->global_index().ExportContents()),
            contents);
  std::filesystem::remove(path);

  std::string trace;
  for (const std::string& line : run.trace) trace += "\n  " + line;
  EXPECT_EQ(contents, golden.contents);
  EXPECT_EQ(traffic, golden.traffic);
  EXPECT_EQ(run.departures_digest, golden.departures) << trace;
  EXPECT_EQ(report, golden.report);
  EXPECT_EQ(snapshot_bytes, threads == 1 ? golden.snapshot_bytes_t1
                                         : golden.snapshot_bytes_t4);
}

INSTANTIATE_TEST_SUITE_P(
    OverlaysReplicationThreads, DepartureGoldenTest,
    ::testing::Combine(::testing::Range<size_t>(0, std::size(kGoldens)),
                       ::testing::Values<size_t>(1, 4)),
    [](const auto& info) {
      const Golden& g = kGoldens[std::get<0>(info.param)];
      return std::string(OverlayName(g.overlay)) + "_r" +
             std::to_string(g.replication) + "_threads_" +
             std::to_string(std::get<1>(info.param));
    });

template <typename Set>
Set Sorted(Set set) {
  std::sort(set.begin(), set.end());
  return set;
}

std::vector<TermId> TermsOf(const TermIdSet& set) {
  return Sorted(std::vector<TermId>(set.begin(), set.end()));
}

std::vector<hdk::TermKey> KeysOf(const hdk::KeySet& set) {
  return Sorted(std::vector<hdk::TermKey>(set.begin(), set.end()));
}

std::vector<std::pair<hdk::TermKey, std::vector<DocId>>> DocsOf(
    const hdk::KeyMap<CowVec<DocId>>& docs) {
  std::vector<std::pair<hdk::TermKey, std::vector<DocId>>> out;
  for (const auto& [key, list] : docs) {
    out.emplace_back(key, std::vector<DocId>(list.begin(), list.end()));
  }
  return Sorted(std::move(out));
}

class DepartureStateTest : public ::testing::TestWithParam<size_t> {};

// After the departures every survivor's local knowledge — oracle facts,
// per-level published keys and published documents — is exactly what a
// from-scratch build over the surviving ranges gives that peer.
TEST_P(DepartureStateTest, SurvivorStateEqualsFromScratchBuild) {
  const EngineConfig config =
      GoldenConfig(OverlayKind::kPGrid, 1, GetParam());
  corpus::DocumentStore store;
  HistoryOutcome run;
  ASSERT_NO_FATAL_FAILURE(RunHistory(config, store, &run));
  auto scratch =
      HdkSearchEngine::Build(config, store, run.engine->peer_ranges());
  ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();

  const auto churned_peers = run.engine->protocol().peers();
  const auto scratch_peers = (*scratch)->protocol().peers();
  ASSERT_EQ(churned_peers.size(), scratch_peers.size());
  for (size_t i = 0; i < churned_peers.size(); ++i) {
    SCOPED_TRACE("peer " + std::to_string(i));
    const p2p::Peer& got = churned_peers[i];
    const p2p::Peer& want = scratch_peers[i];
    EXPECT_EQ(got.id(), want.id());
    EXPECT_EQ(TermsOf(got.oracle().expandable_terms()),
              TermsOf(want.oracle().expandable_terms()));
    EXPECT_EQ(KeysOf(got.oracle().ndks()), KeysOf(want.oracle().ndks()));
    ASSERT_EQ(got.published_keys().size(), want.published_keys().size());
    for (size_t s = 0; s < got.published_keys().size(); ++s) {
      EXPECT_EQ(KeysOf(got.published_keys()[s]),
                KeysOf(want.published_keys()[s]))
          << "level " << s + 1;
    }
    EXPECT_EQ(DocsOf(got.published_docs()), DocsOf(want.published_docs()));
    EXPECT_FALSE(got.HasFreshKnowledge());
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, DepartureStateTest,
                         ::testing::Values<size_t>(1, 4),
                         [](const auto& info) {
                           return "threads_" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace hdk::engine
