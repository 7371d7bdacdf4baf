// Failure-aware retrieval end to end (the fault-injection transport of
// net/fault.h wired through the engines):
//
//   * a seeded lossy build is posting-for-posting identical to the
//     zero-fault build — on both overlays, at any thread count — because
//     indexing losses are absorbed by the barrier redelivery queue;
//   * with replication > 1, killing the responsible peer fails queries
//     over to a replica holder: zero degraded responses while any holder
//     survives, identical rankings — and a batch against a dead holder
//     is identical at 1 and 4 threads, per-kind traffic included;
//   * with every holder dead the query DEGRADES instead of failing: it
//     answers from the reachable lattice keys and flags itself;
//   * evicting the dead peer through the standard departure repair
//     restores an index identical to a fault-free build over the
//     survivors;
//   * the "faulty:..." engine-spec decorator and the single-term baseline
//     honor the same contract.
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/query_gen.h"
#include "corpus/stats.h"
#include "corpus/synthetic.h"
#include "engine/engine_factory.h"
#include "engine/fingerprint.h"
#include "engine/hdk_engine.h"
#include "engine/partition.h"
#include "engine/st_engine.h"
#include "net/fault.h"
#include "net/traffic.h"

namespace hdk::engine {
namespace {

corpus::SyntheticCorpus FaultCorpus() {
  corpus::SyntheticConfig cfg;
  cfg.seed = 4242;
  cfg.vocabulary_size = 3000;
  cfg.num_topics = 12;
  cfg.topic_width = 35;
  cfg.mean_doc_length = 50.0;
  cfg.topic_share = 0.7;
  return corpus::SyntheticCorpus(cfg);
}

EngineConfig FaultConfig(size_t num_threads = 1) {
  EngineConfig config;
  config.hdk.df_max = 8;
  config.hdk.very_frequent_threshold = 450;
  config.hdk.window = 8;
  config.hdk.s_max = 3;
  config.num_threads = num_threads;
  return config;
}

std::vector<corpus::Query> FaultQueries(const corpus::DocumentStore& store,
                                        std::span<const DocRange> ranges,
                                        size_t count = 25) {
  corpus::CollectionStats stats(store, ranges);
  corpus::QueryGenConfig qcfg;
  qcfg.min_term_df = 3;
  return corpus::QueryGenerator(qcfg, store, stats).Generate(count);
}

void ExpectSameContents(const hdk::HdkIndexContents& expected,
                        const hdk::HdkIndexContents& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (const auto& [key, entry] : expected.entries()) {
    const hdk::KeyEntry* other = actual.Find(key);
    ASSERT_NE(other, nullptr) << "missing key " << key.ToString();
    EXPECT_EQ(entry.global_df, other->global_df) << key.ToString();
    EXPECT_EQ(entry.is_hdk, other->is_hdk) << key.ToString();
    EXPECT_EQ(entry.postings, other->postings) << key.ToString();
  }
}

void ExpectSameResults(const SearchResponse& a, const SearchResponse& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].doc, b.results[i].doc);
    EXPECT_NEAR(a.results[i].score, b.results[i].score, 1e-12);
  }
}

class LossyBuildIdentityTest
    : public ::testing::TestWithParam<std::tuple<OverlayKind, size_t>> {};

TEST_P(LossyBuildIdentityTest, LossyBuildEqualsFaultFreeBuild) {
  const auto [overlay, threads] = GetParam();
  corpus::DocumentStore store;
  FaultCorpus().FillStore(240, &store);

  EngineConfig clean_config = FaultConfig(threads);
  clean_config.overlay = overlay;
  auto clean = HdkSearchEngine::Build(clean_config, store,
                                      SplitEvenly(240, 4));
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  // 1% seeded loss on every message kind: insertions and notifications
  // are retried and, past the retry budget, redelivered at the level
  // barrier — the published index must not lose a single posting.
  EngineConfig lossy_config = clean_config;
  auto plan = net::FaultPlan::Parse("seed=7,loss=0.01");
  ASSERT_TRUE(plan.ok());
  lossy_config.faults = *plan;
  auto lossy = HdkSearchEngine::Build(lossy_config, store,
                                      SplitEvenly(240, 4));
  ASSERT_TRUE(lossy.ok()) << lossy.status().ToString();

  ExpectSameContents((*clean)->global_index().ExportContents(),
                     (*lossy)->global_index().ExportContents());
  EXPECT_EQ((*lossy)->global_index().lost_contributions(), 0u);
  EXPECT_EQ((*lossy)->global_index().lost_notifications(), 0u);
  // The retried insertions are visible as extra recorded traffic.
  EXPECT_GT((*lossy)->traffic()->total().messages,
            (*clean)->traffic()->total().messages);

  // Queries under loss: retries happen, but every round trip eventually
  // lands (a whole round trip failing needs 4 consecutive losses per
  // leg) — no degraded responses, identical rankings.
  uint64_t retries = 0;
  for (const auto& q : FaultQueries(store, (*clean)->peer_ranges())) {
    auto faulted = (*lossy)->Search(q.terms, 20, /*origin=*/0);
    auto reference = (*clean)->Search(q.terms, 20, /*origin=*/0);
    EXPECT_FALSE(faulted.degraded);
    EXPECT_EQ(faulted.cost.keys_unreachable, 0u);
    ExpectSameResults(reference, faulted);
    retries += faulted.cost.retries;
  }
  EXPECT_GT(retries, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    OverlaysAndThreads, LossyBuildIdentityTest,
    ::testing::Combine(::testing::Values(OverlayKind::kPGrid,
                                         OverlayKind::kChord),
                       ::testing::Values(size_t{1}, size_t{4})),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == OverlayKind::kPGrid
                             ? "pgrid"
                             : "chord") +
             "_t" + std::to_string(std::get<1>(info.param));
    });

TEST(LossyBuildIdentityTest, LossyBuildsAreThreadCountInvariant) {
  corpus::DocumentStore store;
  FaultCorpus().FillStore(240, &store);
  auto plan = net::FaultPlan::Parse("seed=13,loss=0.01");
  ASSERT_TRUE(plan.ok());

  EngineConfig serial_config = FaultConfig(1);
  serial_config.faults = *plan;
  EngineConfig parallel_config = FaultConfig(4);
  parallel_config.faults = *plan;

  auto serial = HdkSearchEngine::Build(serial_config, store,
                                       SplitEvenly(240, 4));
  auto parallel = HdkSearchEngine::Build(parallel_config, store,
                                         SplitEvenly(240, 4));
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());

  // The fault schedule is a pure hash of the message identity, so the
  // SAME messages are lost at any thread count: contents AND recorded
  // traffic agree counter for counter.
  ExpectSameContents((*serial)->global_index().ExportContents(),
                     (*parallel)->global_index().ExportContents());
  EXPECT_EQ((*serial)->traffic()->total(), (*parallel)->traffic()->total());
  for (size_t k = 0; k < net::kNumMessageKinds; ++k) {
    const auto kind = static_cast<net::MessageKind>(k);
    EXPECT_EQ((*serial)->traffic()->ByKind(kind),
              (*parallel)->traffic()->ByKind(kind))
        << net::MessageKindName(kind);
  }
}

TEST(ReplicaFailoverTest, ReplicaAnswersWhenResponsiblePeerDies) {
  corpus::DocumentStore store;
  FaultCorpus().FillStore(240, &store);
  EngineConfig config = FaultConfig(1);
  config.replication = 2;
  auto engine = HdkSearchEngine::Build(config, store, SplitEvenly(240, 6));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  const auto queries = FaultQueries(store, (*engine)->peer_ranges());
  std::vector<SearchResponse> baseline;
  for (const auto& q : queries) {
    baseline.push_back((*engine)->Search(q.terms, 20, /*origin=*/0));
  }

  // An unannounced hard failure of one peer: every key it was
  // responsible for is served by its replica holder instead — zero
  // degraded responses while any holder survives, identical rankings.
  (*engine)->fault_injector().KillPeer(3);
  uint64_t failovers = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto response = (*engine)->Search(queries[i].terms, 20, /*origin=*/0);
    EXPECT_FALSE(response.degraded) << "query " << i;
    EXPECT_EQ(response.cost.keys_unreachable, 0u);
    ExpectSameResults(baseline[i], response);
    failovers += response.cost.failovers;
  }
  EXPECT_GT(failovers, 0u);
  // The failed round trips pushed the dead peer's strain up.
  EXPECT_GT((*engine)->peer_health().strain(3), 0u);
}

TEST(ReplicaFailoverTest, DeadHolderBatchesAreThreadCountInvariant) {
  corpus::DocumentStore store;
  FaultCorpus().FillStore(240, &store);
  constexpr PeerId kDead = 3;

  uint64_t batch_fp[2] = {0, 0};
  net::TrafficCounters by_kind[2][net::kNumMessageKinds];
  for (size_t ti = 0; ti < 2; ++ti) {
    const size_t threads = ti == 0 ? 1 : 4;
    SCOPED_TRACE(std::to_string(threads) + " threads");
    EngineConfig config = FaultConfig(threads);
    config.replication = 2;
    config.faults = *net::FaultPlan::Parse("seed=7,loss=0.02");
    auto built = HdkSearchEngine::Build(config, store, SplitEvenly(240, 6));
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    auto engine = std::move(built).value();
    engine->fault_injector().KillPeer(kDead);

    const auto queries = FaultQueries(store, engine->peer_ranges(), 60);
    // Strain is cross-query state: until the dead holder crosses the
    // suspect threshold, how many queries still probe it first depends on
    // their interleaving. A serial warm-up settles that; from then on the
    // failover order is fixed, since a dead peer's strain only grows.
    for (size_t i = 0; !engine->peer_health().Suspect(kDead); ++i) {
      ASSERT_LT(i, queries.size()) << "the dead holder never became suspect";
      engine->Search(queries[i].terms, 20, /*origin=*/0);
    }
    const BatchResponse batch = engine->SearchBatch(queries, 20);
    // The batch rotates origins from peer 0 over every peer, the dead one
    // included, and a dead origin cannot receive its responses: exactly
    // its queries degrade, every other query fails over.
    for (size_t i = 0; i < batch.responses.size(); ++i) {
      const bool dead_origin = i % engine->num_peers() == kDead;
      EXPECT_EQ(batch.responses[i].degraded, dead_origin) << "query " << i;
    }
    EXPECT_GT(batch.total.failovers, 0u);
    batch_fp[ti] = FingerprintBatch(batch);
    for (size_t k = 0; k < net::kNumMessageKinds; ++k) {
      by_kind[ti][k] =
          engine->traffic()->ByKind(static_cast<net::MessageKind>(k));
    }
  }
  // Lock-free dead-peer and strain reads under a real kill: the batch and
  // the per-kind traffic are identical at every thread count.
  EXPECT_EQ(batch_fp[0], batch_fp[1]);
  for (size_t k = 0; k < net::kNumMessageKinds; ++k) {
    EXPECT_EQ(by_kind[0][k], by_kind[1][k])
        << net::MessageKindName(static_cast<net::MessageKind>(k));
  }
}

TEST(GracefulDegradationTest, DeadPrimaryWithoutReplicasDegradesThenEvicts) {
  corpus::DocumentStore store;
  FaultCorpus().FillStore(240, &store);
  EngineConfig config = FaultConfig(1);  // replication = 1
  auto engine = HdkSearchEngine::Build(config, store, SplitEvenly(240, 6));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  const auto queries = FaultQueries(store, (*engine)->peer_ranges());

  // Single-homed keys + a dead peer: queries touching its key space
  // degrade (the lattice answers from the reachable keys) but still
  // return.
  (*engine)->fault_injector().KillPeer(2);
  uint64_t degraded = 0, unreachable = 0;
  for (const auto& q : queries) {
    auto response = (*engine)->Search(q.terms, 20, /*origin=*/0);
    degraded += response.degraded;
    unreachable += response.cost.keys_unreachable;
  }
  EXPECT_GT(degraded, 0u);
  EXPECT_GT(unreachable, 0u);

  // Eviction converts the unannounced failure into a standard departure:
  // the ledger-driven repair leaves an index identical to a fault-free
  // build over the survivors, and queries stop degrading.
  auto evicted = (*engine)->EvictDeadPeers(store);
  ASSERT_TRUE(evicted.ok()) << evicted.status().ToString();
  EXPECT_EQ(*evicted, 1u);
  ASSERT_EQ((*engine)->num_peers(), 5u);

  auto scratch = HdkSearchEngine::Build(FaultConfig(1), store,
                                        (*engine)->peer_ranges());
  ASSERT_TRUE(scratch.ok());
  ExpectSameContents((*scratch)->global_index().ExportContents(),
                     (*engine)->global_index().ExportContents());
  for (const auto& q : queries) {
    auto repaired = (*engine)->Search(q.terms, 20, /*origin=*/0);
    auto reference = (*scratch)->Search(q.terms, 20, /*origin=*/0);
    EXPECT_FALSE(repaired.degraded);
    ExpectSameResults(reference, repaired);
  }

  // Nothing left to evict.
  auto again = (*engine)->EvictDeadPeers(store);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0u);
}

TEST(FaultySpecTest, DecoratorInstallsQueryTimeFaults) {
  corpus::DocumentStore store;
  FaultCorpus().FillStore(160, &store);
  const EngineConfig config = FaultConfig();

  auto plain = MakeEngine("hdk", config, store, SplitEvenly(160, 4));
  auto faulty = MakeEngine("faulty:seed=7,loss=0.02(hdk)", config, store,
                           SplitEvenly(160, 4));
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();
  // The decorator carries no state: the engine name is the backend's.
  EXPECT_EQ((*faulty)->name(), "hdk");

  const std::vector<DocRange> ranges = SplitEvenly(160, 4);
  uint64_t retries = 0;
  for (const auto& q : FaultQueries(store, ranges)) {
    auto a = (*plain)->Search(q.terms, 20, /*origin=*/0);
    auto b = (*faulty)->Search(q.terms, 20, /*origin=*/0);
    EXPECT_FALSE(b.degraded);
    ExpectSameResults(a, b);
    retries += b.cost.retries;
  }
  EXPECT_GT(retries, 0u);

  // Malformed plans fail at build time; unsupported backends reject the
  // decorator (the centralized reference accepts it as a no-op).
  EXPECT_FALSE(
      MakeEngine("faulty:loss=2(hdk)", config, store, SplitEvenly(160, 4))
          .ok());
  EXPECT_TRUE(MakeEngine("faulty:seed=1,loss=0.1(bm25)", config, store,
                         SplitEvenly(160, 4))
                  .ok());
}

TEST(SingleTermFaultsTest, LossRetriesAndDeadOwnerDegrades) {
  corpus::DocumentStore store;
  FaultCorpus().FillStore(160, &store);
  EngineConfig config;
  config.num_threads = 1;

  auto clean = MakeEngine("single-term", config, store,
                          SplitEvenly(160, 4));
  ASSERT_TRUE(clean.ok());
  config.faults = *net::FaultPlan::Parse("seed=3,loss=0.02");
  auto lossy = MakeEngine("single-term", config, store,
                          SplitEvenly(160, 4));
  ASSERT_TRUE(lossy.ok());

  const std::vector<DocRange> ranges = SplitEvenly(160, 4);
  const auto queries = FaultQueries(store, ranges);
  uint64_t retries = 0;
  for (const auto& q : queries) {
    auto a = (*clean)->Search(q.terms, 20, /*origin=*/0);
    auto b = (*lossy)->Search(q.terms, 20, /*origin=*/0);
    EXPECT_FALSE(b.degraded);
    ExpectSameResults(a, b);
    retries += b.cost.retries;
  }
  EXPECT_GT(retries, 0u);

  // Terms are single-homed in the baseline: a dead owner degrades every
  // query that needs one of its terms (no replica to fail over to), but
  // the reachable terms still answer.
  auto* st = static_cast<SingleTermEngine*>((*lossy).get());
  st->fault_injector().KillPeer(2);
  uint64_t degraded = 0;
  for (const auto& q : queries) {
    auto response = (*lossy)->Search(q.terms, 20, /*origin=*/0);
    degraded += response.degraded;
    if (response.degraded) {
      EXPECT_GT(response.cost.keys_unreachable, 0u);
    }
  }
  EXPECT_GT(degraded, 0u);
}

TEST(SingleTermFaultsTest, JoinedPeersServeUnderLoss) {
  // The baseline's joins size the injector and health state for the new
  // peers (the net/fault.h sizing contract): queries originating at and
  // routed to them ride the lossy transport like any other peer's.
  corpus::DocumentStore store;
  FaultCorpus().FillStore(240, &store);
  EngineConfig config;
  config.num_threads = 1;
  auto clean = MakeEngine("single-term", config, store, SplitEvenly(160, 4));
  ASSERT_TRUE(clean.ok());
  config.faults = *net::FaultPlan::Parse("seed=3,loss=0.02");
  auto lossy = MakeEngine("single-term", config, store, SplitEvenly(160, 4));
  ASSERT_TRUE(lossy.ok());

  const std::vector<MembershipEvent> wave = {
      MembershipEvent::Join({160, 200}), MembershipEvent::Join({200, 240})};
  ASSERT_TRUE((*clean)->ApplyMembership(store, wave).ok());
  ASSERT_TRUE((*lossy)->ApplyMembership(store, wave).ok());
  ASSERT_EQ((*lossy)->num_peers(), 6u);

  // The six 40-document ranges the network now holds.
  const auto queries = FaultQueries(store, SplitEvenly(240, 6));
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto origin = static_cast<PeerId>(4 + i % 2);  // a joined peer
    auto a = (*clean)->Search(queries[i].terms, 20, origin);
    auto b = (*lossy)->Search(queries[i].terms, 20, origin);
    EXPECT_FALSE(b.degraded) << "query " << i;
    ExpectSameResults(a, b);
  }
}

}  // namespace
}  // namespace hdk::engine
