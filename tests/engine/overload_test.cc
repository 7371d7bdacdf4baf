// Tail-latency armor end to end (deadline budgets and hedged replica
// reads — common/search_options.h and the engine wiring):
//
//   * with every knob at its default the engine is BYTE-IDENTICAL to the
//     pre-overload engine: the golden build fingerprints still hold with
//     the knobs explicitly defaulted, and batches carry zero armor
//     counters;
//   * hedged reads against a slow replica holder cut simulated latency
//     without changing a single ranked result, deterministically at every
//     thread count on both overlays;
//   * a deadline budget turns unreachable-holder retry storms into a
//     partial, explicitly-degraded top-k with deadline_exceeded set — and
//     a deadline wide enough to never bind is byte-identical to no
//     deadline at all.
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/search_options.h"
#include "corpus/query_gen.h"
#include "corpus/stats.h"
#include "corpus/synthetic.h"
#include "engine/fingerprint.h"
#include "engine/hdk_engine.h"
#include "engine/partition.h"
#include "net/fault.h"
#include "net/traffic.h"

namespace hdk::engine {
namespace {

corpus::SyntheticCorpus OverloadCorpus() {
  corpus::SyntheticConfig cfg;
  cfg.seed = 4242;
  cfg.vocabulary_size = 3000;
  cfg.num_topics = 12;
  cfg.topic_width = 35;
  cfg.mean_doc_length = 50.0;
  cfg.topic_share = 0.7;
  return corpus::SyntheticCorpus(cfg);
}

EngineConfig OverloadConfig(OverlayKind overlay, size_t num_threads) {
  EngineConfig config;
  config.hdk.df_max = 8;
  config.hdk.very_frequent_threshold = 450;
  config.hdk.window = 8;
  config.hdk.s_max = 3;
  config.overlay = overlay;
  config.num_threads = num_threads;
  return config;
}

std::vector<corpus::Query> OverloadQueries(
    const corpus::DocumentStore& store, std::span<const DocRange> ranges,
    size_t count = 25) {
  corpus::CollectionStats stats(store, ranges);
  corpus::QueryGenConfig qcfg;
  qcfg.min_term_df = 3;
  return corpus::QueryGenerator(qcfg, store, stats).Generate(count);
}

void ExpectSameRankings(const BatchResponse& a, const BatchResponse& b) {
  ASSERT_EQ(a.responses.size(), b.responses.size());
  for (size_t i = 0; i < a.responses.size(); ++i) {
    const auto& ra = a.responses[i].results;
    const auto& rb = b.responses[i].results;
    ASSERT_EQ(ra.size(), rb.size()) << "query " << i;
    for (size_t j = 0; j < ra.size(); ++j) {
      EXPECT_EQ(ra[j].doc, rb[j].doc) << "query " << i;
      EXPECT_NEAR(ra[j].score, rb[j].score, 1e-12) << "query " << i;
    }
  }
}

// ---------------------------------------------------------------------
// Defaults: byte identity with the pre-overload engine.

// The golden build fingerprints of the flat-map-era lifecycle test
// (tests/common/flat_map_test.cc) — re-asserted here next to the
// overload knobs, so a default that silently activates breaks this test,
// not just the lifecycle one.
struct GoldenBuild {
  uint64_t contents_fp;
  uint64_t traffic_fp;
};
constexpr GoldenBuild kPGridGoldenBuild = {9975991081778628371ULL,
                                           11150792075817568124ULL};
constexpr GoldenBuild kChordGoldenBuild = {9975991081778628371ULL,
                                           14647834575931769478ULL};

class OverloadDefaultsTest
    : public ::testing::TestWithParam<std::tuple<OverlayKind, size_t>> {};

INSTANTIATE_TEST_SUITE_P(
    OverlaysAndThreads, OverloadDefaultsTest,
    ::testing::Combine(::testing::Values(OverlayKind::kPGrid,
                                         OverlayKind::kChord),
                       ::testing::Values(size_t{1}, size_t{4})),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == OverlayKind::kPGrid
                             ? "pgrid"
                             : "chord") +
             "_t" + std::to_string(std::get<1>(info.param));
    });

TEST_P(OverloadDefaultsTest, ExplicitDefaultsMatchPreOverloadGoldens) {
  const auto [overlay, threads] = GetParam();
  // The golden fixtures' exact corpus and config.
  corpus::SyntheticConfig cfg;
  cfg.seed = 4242;
  cfg.vocabulary_size = 2500;
  cfg.num_topics = 10;
  cfg.topic_width = 30;
  cfg.mean_doc_length = 45.0;
  cfg.topic_share = 0.7;
  corpus::DocumentStore store;
  corpus::SyntheticCorpus(cfg).FillStore(320, &store);

  EngineConfig config;
  config.hdk.df_max = 9;
  config.hdk.very_frequent_threshold = 450;
  config.hdk.window = 8;
  config.hdk.s_max = 3;
  config.overlay = overlay;
  config.num_threads = threads;

  auto built = HdkSearchEngine::Build(config, store, SplitEvenly(160, 4));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto engine = std::move(built).value();

  const GoldenBuild& golden = overlay == OverlayKind::kPGrid
                                  ? kPGridGoldenBuild
                                  : kChordGoldenBuild;
  EXPECT_EQ(FingerprintContents(engine->global_index().ExportContents()),
            golden.contents_fp);
  EXPECT_EQ(FingerprintTraffic(*engine->traffic()), golden.traffic_fp);
}

TEST_P(OverloadDefaultsTest, DefaultOptionsCarryZeroArmorCounters) {
  const auto [overlay, threads] = GetParam();
  corpus::DocumentStore store;
  OverloadCorpus().FillStore(240, &store);

  // Two identical builds (deterministic), one batch each: the engine's
  // origin rotation advances per batch, so same-engine comparisons would
  // compare different origins, not different options.
  const EngineConfig config = OverloadConfig(overlay, threads);
  auto a = HdkSearchEngine::Build(config, store, SplitEvenly(240, 6));
  auto b = HdkSearchEngine::Build(config, store, SplitEvenly(240, 6));
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  const auto queries = OverloadQueries(store, (*a)->peer_ranges());
  // Explicit default options and the options-free overload are the same
  // call, response for response.
  BatchResponse plain = (*a)->SearchBatch(queries, 20);
  BatchResponse spelled = (*b)->SearchBatch(queries, 20, SearchOptions{});
  EXPECT_EQ(FingerprintBatch(plain), FingerprintBatch(spelled));

  EXPECT_EQ(plain.total.hedges_fired, 0u);
  EXPECT_EQ(plain.total.hedge_wins, 0u);
  EXPECT_EQ(plain.total.deadline_exceeded, 0u);
  for (const SearchResponse& response : plain.responses) {
    EXPECT_FALSE(response.degraded);
    EXPECT_FALSE(response.shed);
  }
}

// ---------------------------------------------------------------------
// Hedged replica reads.

class HedgeTest : public ::testing::TestWithParam<OverlayKind> {};

INSTANTIATE_TEST_SUITE_P(BothOverlays, HedgeTest,
                         ::testing::Values(OverlayKind::kPGrid,
                                           OverlayKind::kChord),
                         [](const auto& info) {
                           return info.param == OverlayKind::kPGrid
                                      ? "pgrid"
                                      : "chord";
                         });

TEST_P(HedgeTest, HedgesCutSlowHolderLatencyWithIdenticalRankings) {
  corpus::DocumentStore store;
  OverloadCorpus().FillStore(240, &store);

  // Peer 3 is alive but a straggler: every leg addressed to it draws up
  // to 64 injected ticks. Its replica holders are fast.
  EngineConfig config = OverloadConfig(GetParam(), 1);
  config.replication = 2;
  config.faults = *net::FaultPlan::Parse("seed=7,latency@3=64");
  auto built = HdkSearchEngine::Build(config, store, SplitEvenly(240, 6));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto engine = std::move(built).value();

  const auto queries = OverloadQueries(store, engine->peer_ranges());

  BatchResponse unhedged = engine->SearchBatch(queries, 20);
  SearchOptions hedged_options;
  hedged_options.hedge_delay_ticks = 4;
  BatchResponse hedged = engine->SearchBatch(queries, 20, hedged_options);

  // Identical rankings, zero degraded — hedging is pure latency armor.
  ExpectSameRankings(unhedged, hedged);
  for (const SearchResponse& response : hedged.responses) {
    EXPECT_FALSE(response.degraded);
  }
  // The straggler forced hedges, replicas won races, and the winners'
  // clock beats waiting out the slow legs.
  EXPECT_GT(hedged.total.hedges_fired, 0u);
  EXPECT_GT(hedged.total.hedge_wins, 0u);
  EXPECT_LT(hedged.total.latency_ticks, unhedged.total.latency_ticks);
}

TEST_P(HedgeTest, HedgedBatchesAreThreadCountInvariant) {
  corpus::DocumentStore store;
  OverloadCorpus().FillStore(240, &store);

  SearchOptions options;
  options.hedge_delay_ticks = 4;
  options.deadline_ticks = 512;

  uint64_t batch_fp[2] = {0, 0};
  net::TrafficCounters by_kind[2][net::kNumMessageKinds];
  for (size_t ti = 0; ti < 2; ++ti) {
    const size_t threads = ti == 0 ? 1 : 4;
    SCOPED_TRACE(std::to_string(threads) + " threads");
    EngineConfig config = OverloadConfig(GetParam(), threads);
    config.replication = 2;
    config.faults = *net::FaultPlan::Parse("seed=7,loss=0.02,latency@3=64");
    auto built = HdkSearchEngine::Build(config, store, SplitEvenly(240, 6));
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    auto engine = std::move(built).value();

    const auto queries = OverloadQueries(store, engine->peer_ranges());
    BatchResponse batch = engine->SearchBatch(queries, 20, options);
    EXPECT_GT(batch.total.hedges_fired, 0u);
    batch_fp[ti] = HashCombine(FingerprintBatch(batch),
                               batch.total.hedges_fired +
                                   batch.total.hedge_wins * 1000003ULL);
    for (size_t k = 0; k < net::kNumMessageKinds; ++k) {
      by_kind[ti][k] =
          engine->traffic()->ByKind(static_cast<net::MessageKind>(k));
    }
  }
  // Every hedge decision is a pure hash of the message identity: the
  // batch (results, costs, armor counters) and the per-kind traffic are
  // identical at every thread count.
  EXPECT_EQ(batch_fp[0], batch_fp[1]);
  for (size_t k = 0; k < net::kNumMessageKinds; ++k) {
    EXPECT_EQ(by_kind[0][k], by_kind[1][k])
        << net::MessageKindName(static_cast<net::MessageKind>(k));
  }
}

// ---------------------------------------------------------------------
// Deadline budgets.

TEST(DeadlineTest, BudgetDegradesInsteadOfRetryingForever) {
  corpus::DocumentStore store;
  OverloadCorpus().FillStore(240, &store);

  // Single-homed keys, one dead peer: without a deadline each touched
  // key burns the full retry/backoff budget against the corpse. One
  // fresh (identical) build per batch keeps the origin rotation aligned
  // across the three compared runs.
  EngineConfig config = OverloadConfig(OverlayKind::kPGrid, 1);
  config.faults = *net::FaultPlan::Parse("seed=7,latency=6,kill=2@0");
  auto fresh_engine = [&] {
    auto built = HdkSearchEngine::Build(config, store, SplitEvenly(240, 6));
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    return std::move(built).value();
  };

  auto engine = fresh_engine();
  const auto queries = OverloadQueries(store, engine->peer_ranges());
  BatchResponse unlimited = engine->SearchBatch(queries, 20);
  EXPECT_EQ(unlimited.total.deadline_exceeded, 0u);

  SearchOptions tight;
  tight.deadline_ticks = 8;
  BatchResponse bounded = fresh_engine()->SearchBatch(queries, 20, tight);

  // Some queries ran out of budget: each one is explicitly degraded,
  // flagged deadline_exceeded, and still returns a (partial) top-k.
  EXPECT_GT(bounded.total.deadline_exceeded, 0u);
  uint64_t flagged = 0;
  for (const SearchResponse& response : bounded.responses) {
    if (response.cost.deadline_exceeded > 0) {
      EXPECT_TRUE(response.degraded);
      ++flagged;
    }
  }
  EXPECT_EQ(flagged, bounded.total.deadline_exceeded);
  // The budget bounds simulated waiting: strictly less time than the
  // unbounded retry storm.
  EXPECT_LT(bounded.total.latency_ticks, unlimited.total.latency_ticks);

  // A deadline that never binds is byte-identical to no deadline.
  SearchOptions loose;
  loose.deadline_ticks = 1u << 30;
  BatchResponse wide = fresh_engine()->SearchBatch(queries, 20, loose);
  EXPECT_EQ(FingerprintBatch(wide), FingerprintBatch(unlimited));
  EXPECT_EQ(wide.total.deadline_exceeded, 0u);
}

TEST(DeadlineTest, BoundedBatchesAreThreadCountInvariant) {
  corpus::DocumentStore store;
  OverloadCorpus().FillStore(240, &store);

  SearchOptions tight;
  tight.deadline_ticks = 8;

  uint64_t fp[2] = {0, 0};
  uint64_t exceeded[2] = {0, 0};
  for (size_t ti = 0; ti < 2; ++ti) {
    const size_t threads = ti == 0 ? 1 : 4;
    EngineConfig config = OverloadConfig(OverlayKind::kChord, threads);
    config.faults = *net::FaultPlan::Parse("seed=7,latency=6,kill=2@0");
    auto built = HdkSearchEngine::Build(config, store, SplitEvenly(240, 6));
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    auto engine = std::move(built).value();
    const auto queries = OverloadQueries(store, engine->peer_ranges());
    BatchResponse batch = engine->SearchBatch(queries, 20, tight);
    fp[ti] = FingerprintBatch(batch);
    exceeded[ti] = batch.total.deadline_exceeded;
  }
  // The budget is per query and charged by pure-hash latency draws: the
  // same queries exceed it at every thread count.
  EXPECT_EQ(fp[0], fp[1]);
  EXPECT_GT(exceeded[0], 0u);
  EXPECT_EQ(exceeded[0], exceeded[1]);
}

}  // namespace
}  // namespace hdk::engine
