// The engine factory: EngineSpec parsing and its one decorator, the
// "cached(...)" bounded LRU result cache. Contract: identical ranked results to the undecorated
// engine, a non-zero hit rate on repeated workloads (hits answer with
// ZERO network counters), and full invalidation on any membership event.
#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/query_gen.h"
#include "corpus/stats.h"
#include "corpus/synthetic.h"
#include "engine/engine_factory.h"
#include "engine/membership.h"
#include "engine/partition.h"
#include "engine/result_cache.h"

namespace hdk::engine {
namespace {

corpus::SyntheticCorpus TestCorpus() {
  corpus::SyntheticConfig cfg;
  cfg.seed = 777;
  cfg.vocabulary_size = 3000;
  cfg.num_topics = 12;
  cfg.topic_width = 35;
  cfg.mean_doc_length = 50.0;
  cfg.topic_share = 0.7;
  return corpus::SyntheticCorpus(cfg);
}

EngineConfig TestConfig() {
  EngineConfig config;
  config.hdk.df_max = 10;
  config.hdk.very_frequent_threshold = 600;
  config.hdk.window = 8;
  config.hdk.s_max = 3;
  config.num_threads = 1;
  return config;
}

TEST(EngineSpecTest, ParsesBareKindsAndAliases) {
  for (EngineKind kind : kAllEngineKinds) {
    auto spec = EngineSpec::Parse(EngineKindName(kind));
    ASSERT_TRUE(spec.ok());
    EXPECT_EQ(spec->kind, kind);
    EXPECT_TRUE(spec->decorators.empty());
    EXPECT_EQ(spec->ToString(), EngineKindName(kind));
  }
  auto alias = EngineSpec::Parse("st");
  ASSERT_TRUE(alias.ok());
  EXPECT_EQ(alias->kind, EngineKind::kSingleTerm);
}

TEST(EngineSpecTest, ParsesDecoratorStacks) {
  auto spec = EngineSpec::Parse("cached(hdk)");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->kind, EngineKind::kHdk);
  ASSERT_EQ(spec->decorators.size(), 1u);
  EXPECT_EQ(spec->decorators[0].name, "cached");
  EXPECT_EQ(spec->decorators[0].arg, "");
  EXPECT_EQ(spec->ToString(), "cached(hdk)");

  auto with_arg = EngineSpec::Parse(" cached:256( single-term ) ");
  ASSERT_TRUE(with_arg.ok());
  EXPECT_EQ(with_arg->kind, EngineKind::kSingleTerm);
  ASSERT_EQ(with_arg->decorators.size(), 1u);
  EXPECT_EQ(with_arg->decorators[0].arg, "256");
  EXPECT_EQ(with_arg->ToString(), "cached:256(single-term)");

  auto nested = EngineSpec::Parse("cached:2(cached(bm25))");
  ASSERT_TRUE(nested.ok());
  EXPECT_EQ(nested->kind, EngineKind::kCentralized);
  ASSERT_EQ(nested->decorators.size(), 2u);
  EXPECT_EQ(nested->ToString(), "cached:2(cached(centralized))");
}

TEST(EngineSpecTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(EngineSpec::Parse("").ok());
  EXPECT_FALSE(EngineSpec::Parse("warp-drive").ok());
  EXPECT_FALSE(EngineSpec::Parse("cached(hdk").ok());
  EXPECT_FALSE(EngineSpec::Parse("(hdk)").ok());
  EXPECT_FALSE(EngineSpec::Parse("cached()").ok());
  // A ':' promises an argument.
  EXPECT_FALSE(EngineSpec::Parse("cached:(hdk)").ok());
  EXPECT_FALSE(EngineSpec::Parse("cached: (hdk)").ok());
}

TEST(EngineSpecTest, RejectsUnknownDecoratorsAndBadArguments) {
  // A well-formed spec with an unknown decorator parses but cannot
  // build; fault plans install through EngineConfig::faults, not a spec.
  corpus::DocumentStore store;
  TestCorpus().FillStore(40, &store);
  for (const char* spec : {"superpeer(hdk)", "faulty:loss=0.1(hdk)"}) {
    ASSERT_TRUE(EngineSpec::Parse(spec).ok()) << spec;
    auto built = MakeEngine(spec, TestConfig(), store, SplitEvenly(40, 2));
    EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument) << spec;
  }
  // A bad capacity argument fails at build time.
  EXPECT_FALSE(MakeEngine("cached:zero(hdk)", TestConfig(), store,
                          SplitEvenly(40, 2))
                   .ok());
}

class CachedEngineTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  void SetUp() override {
    TestCorpus().FillStore(160, &store_);
    corpus::CollectionStats stats(store_);
    corpus::QueryGenConfig qcfg;
    qcfg.min_term_df = 3;
    queries_ = corpus::QueryGenerator(qcfg, store_, stats).Generate(20);
    // Distinct queries only — the hit/miss arithmetic below relies on the
    // first pass being all misses.
    std::vector<corpus::Query> distinct;
    for (const auto& q : queries_) {
      const bool seen =
          std::any_of(distinct.begin(), distinct.end(),
                      [&](const corpus::Query& d) {
                        return d.terms == q.terms;
                      });
      if (!seen) distinct.push_back(q);
    }
    queries_ = std::move(distinct);
    ASSERT_GT(queries_.size(), 5u);
  }

  corpus::DocumentStore store_;
  std::vector<corpus::Query> queries_;
};

TEST_P(CachedEngineTest, IdenticalResultsWithNonZeroHitRate) {
  const std::string spec =
      "cached(" + std::string(EngineKindName(GetParam())) + ")";
  auto cached = MakeEngine(spec, TestConfig(), store_, SplitEvenly(160, 4));
  auto plain = MakeEngine(GetParam(), TestConfig(), store_,
                          SplitEvenly(160, 4));
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ((*cached)->name(), spec);
  EXPECT_EQ((*cached)->num_documents(), (*plain)->num_documents());
  EXPECT_EQ((*cached)->num_peers(), (*plain)->num_peers());

  // A repeated-query batch: the second half replays the first half.
  std::vector<corpus::Query> repeated = queries_;
  repeated.insert(repeated.end(), queries_.begin(), queries_.end());

  BatchResponse from_cached = (*cached)->SearchBatch(repeated, 20);
  BatchResponse from_plain = (*plain)->SearchBatch(repeated, 20);
  ASSERT_EQ(from_cached.responses.size(), from_plain.responses.size());
  for (size_t i = 0; i < repeated.size(); ++i) {
    const auto& a = from_cached.responses[i].results;
    const auto& b = from_plain.responses[i].results;
    ASSERT_EQ(a.size(), b.size()) << "query " << i;
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].doc, b[j].doc);
      EXPECT_DOUBLE_EQ(a[j].score, b[j].score);
    }
  }
  // Every repeat hit; hits surface through QueryCost and carry zero
  // network counters.
  EXPECT_EQ(from_cached.total.cache_hits, queries_.size());
  EXPECT_EQ(from_cached.total.cache_misses, queries_.size());
  EXPECT_EQ(from_plain.total.cache_hits, 0u);
  for (size_t i = queries_.size(); i < repeated.size(); ++i) {
    const QueryCost& cost = from_cached.responses[i].cost;
    EXPECT_EQ(cost.cache_hits, 1u);
    EXPECT_EQ(cost.messages, 0u);
    EXPECT_EQ(cost.postings_fetched, 0u);
  }

  auto* decorator = static_cast<ResultCacheEngine*>((*cached).get());
  EXPECT_DOUBLE_EQ(decorator->hit_rate(), 0.5);
}

TEST_P(CachedEngineTest, MembershipEventsInvalidateTheCache) {
  auto cached = MakeEngine(
      "cached(" + std::string(EngineKindName(GetParam())) + ")",
      TestConfig(), store_, SplitEvenly(120, 3));
  ASSERT_TRUE(cached.ok());
  auto* decorator = static_cast<ResultCacheEngine*>((*cached).get());

  (void)(*cached)->SearchBatch(queries_, 20);
  EXPECT_GT(decorator->size(), 0u);

  // A join wave changes the document set: stale entries must go.
  ASSERT_TRUE((*cached)->AddPeers(store_, JoinRanges(120, 1, 40)).ok());
  EXPECT_EQ(decorator->size(), 0u);
  EXPECT_EQ((*cached)->num_documents(), 160u);

  // Post-join answers must match an uncached engine built at this state.
  auto plain = MakeEngine(GetParam(), TestConfig(), store_,
                          SplitEvenly(160, 4));
  ASSERT_TRUE(plain.ok());
  for (const auto& q : queries_) {
    auto a = (*cached)->Search(q.terms, 20, /*origin=*/0);
    auto b = (*plain)->Search(q.terms, 20, /*origin=*/0);
    ASSERT_EQ(a.results.size(), b.results.size());
    for (size_t j = 0; j < a.results.size(); ++j) {
      EXPECT_EQ(a.results[j].doc, b.results[j].doc);
    }
  }

  // Departures invalidate too (distributed backends).
  if (GetParam() != EngineKind::kCentralized) {
    (void)(*cached)->Search(queries_[0].terms, 20);
    EXPECT_GT(decorator->size(), 0u);
    ASSERT_TRUE(
        (*cached)
            ->ApplyMembership(store_, {MembershipEvent::Leave(1)})
            .ok());
    EXPECT_EQ(decorator->size(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngineKinds, CachedEngineTest,
                         ::testing::ValuesIn(kAllEngineKinds),
                         [](const auto& info) {
                           std::string name(EngineKindName(info.param));
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(CachedEngineTest2, LruEvictsBeyondCapacity) {
  corpus::DocumentStore store;
  TestCorpus().FillStore(80, &store);
  auto cached =
      MakeEngine("cached:2(centralized)", TestConfig(), store,
                 SplitEvenly(80, 2));
  ASSERT_TRUE(cached.ok());
  auto* decorator = static_cast<ResultCacheEngine*>((*cached).get());
  EXPECT_EQ(decorator->capacity(), 2u);
  // Without the argument the decorator takes the built-in default.
  auto defaulted = MakeEngine("cached(centralized)", TestConfig(), store,
                              SplitEvenly(80, 2));
  ASSERT_TRUE(defaulted.ok());
  EXPECT_EQ(static_cast<ResultCacheEngine*>((*defaulted).get())->capacity(),
            kDefaultResultCacheCapacity);

  const std::vector<TermId> q1{1, 2}, q2{3, 4}, q3{5, 6};
  (void)(*cached)->Search(q1, 10);
  (void)(*cached)->Search(q2, 10);
  (void)(*cached)->Search(q3, 10);  // evicts q1
  EXPECT_EQ(decorator->size(), 2u);
  auto r = (*cached)->Search(q1, 10);  // miss again
  EXPECT_EQ(r.cost.cache_misses, 1u);
  EXPECT_EQ(decorator->hits(), 0u);
  EXPECT_EQ(decorator->misses(), 4u);

  // Same terms, different k: a distinct cache entry.
  (void)(*cached)->Search(q1, 10);
  EXPECT_EQ(decorator->hits(), 1u);
  auto different_k = (*cached)->Search(q1, 5);
  EXPECT_EQ(different_k.cost.cache_misses, 1u);
}

TEST(CachedEngineTest2, NestedDecoratorsCompose) {
  corpus::DocumentStore store;
  TestCorpus().FillStore(80, &store);
  auto nested = MakeEngine("cached:4(cached:8(hdk))", TestConfig(), store,
                           SplitEvenly(80, 2));
  ASSERT_TRUE(nested.ok()) << nested.status().ToString();
  EXPECT_EQ((*nested)->name(), "cached(cached(hdk))");
  const std::vector<TermId> q{1, 2};
  auto first = (*nested)->Search(q, 10);
  auto second = (*nested)->Search(q, 10);
  EXPECT_EQ(second.cost.cache_hits, 1u);
  ASSERT_EQ(first.results.size(), second.results.size());
}

}  // namespace
}  // namespace hdk::engine
