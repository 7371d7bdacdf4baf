// Anti-entropy goldens: a fixed history of membership changes, sweeps and
// a killed-then-revived peer on a replicated network with lossy replica
// pushes, whose every reconciliation outcome is pinned to recorded
// constants — every SyncStats field of every reconcile call (the join
// wave's, each sweep's and the departure's replica_sync), the per-kind
// traffic (messages, postings, hops, bytes) after each step and
// CountReplicaDivergence() after each step — on both overlays, at 1 and 4
// threads, with the default sketch budget and with budgets small enough
// to force full syncs. Any change to the reconciler that moves one
// message, byte or replica copy fails here.
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "corpus/synthetic.h"
#include "engine/fingerprint.h"
#include "engine/hdk_engine.h"
#include "engine/membership.h"
#include "engine/partition.h"
#include "net/fault.h"
#include "sync/sync.h"

namespace hdk::engine {
namespace {

corpus::SyntheticCorpus GoldenCorpus() {
  corpus::SyntheticConfig cfg;
  cfg.seed = 9001;
  cfg.vocabulary_size = 3000;
  cfg.num_topics = 12;
  cfg.topic_width = 35;
  cfg.mean_doc_length = 50.0;
  cfg.topic_share = 0.7;
  return corpus::SyntheticCorpus(cfg);
}

struct Golden {
  const char* name;
  OverlayKind overlay;
  /// SyncConfig::max_cells; 0 keeps the default budget.
  uint32_t max_cells;
  uint64_t sync;
  uint64_t traffic;
  uint64_t divergence;
};

EngineConfig GoldenConfig(const Golden& golden, size_t threads) {
  EngineConfig config;
  config.hdk.df_max = 8;
  config.hdk.very_frequent_threshold = 450;
  config.hdk.window = 8;
  config.hdk.s_max = 3;
  config.overlay = golden.overlay;
  config.num_threads = threads;
  config.replication = 2;
  config.faults = *net::FaultPlan::Parse("seed=11,loss.ReplicaPush=0.3");
  if (golden.max_cells != 0) config.sync.max_cells = golden.max_cells;
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

std::string Describe(const char* step, const sync::SyncStats& s,
                     uint64_t divergence) {
  char buf[360];
  std::snprintf(buf, sizeof(buf),
                "%s: checked=%llu diverged=%llu unreachable=%llu msgs=%llu "
                "sketch=%llu/%lluB est=%llu dec=%llu delta=%llu/%llu "
                "dropped=%llu full=%llu(new %llu, rejected %llu)/%llu/%llu "
                "divergence=%llu",
                step, (unsigned long long)s.pairs_checked,
                (unsigned long long)s.pairs_diverged,
                (unsigned long long)s.pairs_unreachable,
                (unsigned long long)s.messages,
                (unsigned long long)s.sketch_messages,
                (unsigned long long)s.sketch_bytes,
                (unsigned long long)s.estimated_diff,
                (unsigned long long)s.decoded_diff,
                (unsigned long long)s.delta_keys,
                (unsigned long long)s.delta_postings,
                (unsigned long long)s.dropped_keys,
                (unsigned long long)s.full_syncs,
                (unsigned long long)s.full_syncs_new_side,
                (unsigned long long)s.full_syncs_rejected,
                (unsigned long long)s.full_keys,
                (unsigned long long)s.full_postings,
                (unsigned long long)divergence);
  return buf;
}

struct HistoryOutcome {
  uint64_t sync = 0;
  uint64_t traffic = 0;
  uint64_t divergence = 0;
  /// Summed over every reconcile call: proof the paths under test ran.
  sync::SyncStats totals;
  std::string trace;
};

// The fixed history: 6 founders (300 docs) built under lossy replica
// pushes; a 2-peer join wave (its reconcile re-places every replica the
// grown overlay moved, then the wave's own lossy pushes diverge again); a
// sweep with peer 1 killed (its pairs are unreachable and stay diverged);
// a sweep after it revives; the departure of founder 2 (the reconcile
// after the repair); and a last sweep.
void RunHistory(const EngineConfig& config, HistoryOutcome* out) {
  corpus::SyntheticCorpus corpus = GoldenCorpus();
  corpus::DocumentStore store;
  corpus.FillStore(300, &store);
  auto built = HdkSearchEngine::Build(config, store, SplitEvenly(300, 6));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  HdkSearchEngine& engine = **built;
  const p2p::DistributedGlobalIndex& global = engine.global_index();

  // One step's call stats, the cumulative stats, the per-kind traffic and
  // the divergence left behind.
  auto record = [&](const char* step, const sync::SyncStats& call) {
    // Every full sync has exactly one cause.
    EXPECT_EQ(call.full_syncs,
              call.full_syncs_new_side + call.full_syncs_rejected)
        << step;
    const uint64_t divergence = global.CountReplicaDivergence();
    out->sync = DigestSync(DigestSync(out->sync, call), global.sync_stats());
    out->traffic =
        HashCombine(out->traffic, FingerprintTraffic(*engine.traffic()));
    out->divergence = HashCombine(out->divergence, divergence);
    out->totals.Add(call);
    out->trace += "\n  " + Describe(step, call, divergence);
  };
  auto sweep = [&](const char* step) {
    auto stats = engine.RunAntiEntropy();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    record(step, *stats);
  };

  // The build reconciles nothing, so the join's reconcile is the only
  // call the cumulative stats hold after the join wave.
  ASSERT_EQ(global.sync_stats(), sync::SyncStats{});
  record("build", sync::SyncStats{});
  corpus.FillStore(380, &store);
  ASSERT_TRUE(engine.ApplyMembership(store, JoinWave(300, 2, 40)).ok());
  record("join", global.sync_stats());
  engine.fault_injector().KillPeer(1);
  ASSERT_NO_FATAL_FAILURE(sweep("sweep, peer 1 dead"));
  engine.fault_injector().RevivePeer(1);
  ASSERT_NO_FATAL_FAILURE(sweep("sweep, peer 1 revived"));
  ASSERT_TRUE(
      engine.ApplyMembership(store, {MembershipEvent::Leave(2)}).ok());
  record("leave", engine.last_departure().replica_sync);
  ASSERT_NO_FATAL_FAILURE(sweep("sweep"));
}

// Recorded on the reconciler that re-collected and re-sketched every
// replica pair on every call; the difference-only reconciler must agree
// message for message.
constexpr Golden kGoldens[] = {
    {"pgrid", OverlayKind::kPGrid, 0, 0x167cc180051fe8ebULL,
     0x959b8609d041b346ULL, 0xc90c6a1400719eccULL},
    {"chord", OverlayKind::kChord, 0, 0xa627684bdd3909e7ULL,
     0xc47fe6c2db23e59dULL, 0xdb05d3dda8703e60ULL},
    // Budgets that reject most estimates: a mix of decoded deltas and
    // full syncs.
    {"pgrid_max_cells_256", OverlayKind::kPGrid, 256, 0xb1968903ae266460ULL,
     0xc0ec752886873d5bULL, 0xc90c6a1400719eccULL},
    {"chord_max_cells_32", OverlayKind::kChord, 32, 0x3cea7a0775aff1f1ULL,
     0xd7ee457aab752da7ULL, 0xdb05d3dda8703e60ULL},
    // A budget below even an identical pair's IBF: every pair full-syncs.
    {"pgrid_max_cells_1", OverlayKind::kPGrid, 1, 0xf38e94617250ea12ULL,
     0x3c059ab265c91fe6ULL, 0xc90c6a1400719eccULL},
};

using GoldenParam = std::tuple<size_t /*golden*/, size_t /*threads*/>;

class SyncGoldenTest : public ::testing::TestWithParam<GoldenParam> {};

TEST_P(SyncGoldenTest, HistoryMatchesRecordedGoldens) {
  const auto [index, threads] = GetParam();
  const Golden& golden = kGoldens[index];
  HistoryOutcome run;
  ASSERT_NO_FATAL_FAILURE(RunHistory(GoldenConfig(golden, threads), &run));

  // The history reaches the paths under test.
  EXPECT_GT(run.totals.pairs_diverged, 0u);
  EXPECT_GT(run.totals.pairs_unreachable, 0u);
  EXPECT_GT(run.totals.full_syncs_new_side, 0u);
  EXPECT_GT(run.totals.full_syncs_rejected, 0u);
  if (golden.max_cells != 1) {
    EXPECT_GT(run.totals.delta_keys, 0u);
  }

  char got[160];
  std::snprintf(got, sizeof(got),
                "got sync=0x%016llx traffic=0x%016llx divergence=0x%016llx",
                (unsigned long long)run.sync, (unsigned long long)run.traffic,
                (unsigned long long)run.divergence);
  EXPECT_EQ(run.sync, golden.sync) << got << run.trace;
  EXPECT_EQ(run.traffic, golden.traffic) << got;
  EXPECT_EQ(run.divergence, golden.divergence) << got << run.trace;
}

INSTANTIATE_TEST_SUITE_P(
    OverlaysBudgetsThreads, SyncGoldenTest,
    ::testing::Combine(::testing::Range<size_t>(0, std::size(kGoldens)),
                       ::testing::Values<size_t>(1, 4)),
    [](const auto& info) {
      return std::string(kGoldens[std::get<0>(info.param)].name) +
             "_threads_" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace hdk::engine
