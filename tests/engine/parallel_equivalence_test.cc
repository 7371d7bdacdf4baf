// The determinism contract of the parallel execution layer: for every
// EngineKind, an engine built (and grown) with a thread pool is
// posting-for-posting identical to one built serially, and a parallel
// SearchBatch returns exactly the responses of a serial loop over
// Search(). Plus a stress test exercising concurrent batches over one
// shared engine (run under the CI ThreadSanitizer job).
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/query_gen.h"
#include "corpus/stats.h"
#include "corpus/synthetic.h"
#include "engine/engine_factory.h"
#include "engine/hdk_engine.h"
#include "engine/partition.h"
#include "engine/search_engine.h"
#include "hdk/indexer.h"

namespace hdk::engine {
namespace {

/// Thread count of the parallel side; CI overrides via HDKP2P_TEST_THREADS
/// (the "pass the thread env through ctest" knob).
size_t TestThreads() {
  if (const char* env = std::getenv("HDKP2P_TEST_THREADS")) {
    const size_t n = std::strtoul(env, nullptr, 10);
    if (n >= 2) return n;
  }
  return 4;
}

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

EngineConfig SerialConfig() {
  EngineConfig config;
  config.hdk.df_max = 10;
  config.hdk.very_frequent_threshold = 600;
  config.hdk.window = 8;
  config.hdk.s_max = 3;
  config.num_threads = 1;
  return config;
}

EngineConfig ParallelConfig() {
  EngineConfig config = SerialConfig();
  config.num_threads = TestThreads();
  return config;
}

void ExpectSameResponse(const SearchResponse& a, const SearchResponse& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].doc, b.results[i].doc);
    EXPECT_EQ(a.results[i].score, b.results[i].score);  // bit-identical
  }
  EXPECT_EQ(a.cost, b.cost);
}

class ParallelEquivalenceTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  void SetUp() override {
    corpus_ = std::make_unique<corpus::SyntheticCorpus>(TestCorpus());
    corpus_->FillStore(240, &store_);
    corpus::CollectionStats stats(store_);
    corpus::QueryGenConfig qcfg;
    qcfg.min_term_df = 3;
    corpus::QueryGenerator gen(qcfg, store_, stats);
    queries_ = gen.Generate(40);
    ASSERT_GT(queries_.size(), 10u);
  }

  std::unique_ptr<SearchEngine> Make(const EngineConfig& config,
                                     uint64_t docs, uint32_t peers) {
    auto built =
        MakeEngine(GetParam(), config, store_, SplitEvenly(docs, peers));
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    return built.ok() ? std::move(built).value() : nullptr;
  }

  std::unique_ptr<corpus::SyntheticCorpus> corpus_;
  corpus::DocumentStore store_;
  std::vector<corpus::Query> queries_;
};

TEST_P(ParallelEquivalenceTest, BuildMatchesSerial) {
  auto serial = Make(SerialConfig(), 240, 4);
  auto parallel = Make(ParallelConfig(), 240, 4);
  ASSERT_NE(serial, nullptr);
  ASSERT_NE(parallel, nullptr);

  EXPECT_EQ(serial->num_documents(), parallel->num_documents());
  EXPECT_EQ(serial->StoredPostingsPerPeer(),
            parallel->StoredPostingsPerPeer());
  EXPECT_EQ(serial->InsertedPostingsPerPeer(),
            parallel->InsertedPostingsPerPeer());
  if (serial->traffic() != nullptr) {
    EXPECT_EQ(serial->traffic()->total(), parallel->traffic()->total());
  }
  for (const auto& q : queries_) {
    ExpectSameResponse(serial->Search(q.terms, 20, /*origin=*/0),
                       parallel->Search(q.terms, 20, /*origin=*/0));
  }
}

TEST_P(ParallelEquivalenceTest, GrowMatchesSerial) {
  auto serial = Make(SerialConfig(), 120, 2);
  auto parallel = Make(ParallelConfig(), 120, 2);
  ASSERT_NE(serial, nullptr);
  ASSERT_NE(parallel, nullptr);

  corpus_->FillStore(240, &store_);
  ASSERT_TRUE(serial->AddPeers(store_, JoinRanges(120, 2, 60)).ok());
  ASSERT_TRUE(parallel->AddPeers(store_, JoinRanges(120, 2, 60)).ok());

  EXPECT_EQ(serial->num_documents(), parallel->num_documents());
  EXPECT_EQ(serial->StoredPostingsPerPeer(),
            parallel->StoredPostingsPerPeer());
  EXPECT_EQ(serial->InsertedPostingsPerPeer(),
            parallel->InsertedPostingsPerPeer());
  for (const auto& q : queries_) {
    ExpectSameResponse(serial->Search(q.terms, 20, /*origin=*/1),
                       parallel->Search(q.terms, 20, /*origin=*/1));
  }
}

TEST_P(ParallelEquivalenceTest, SearchBatchMatchesSerial) {
  auto serial = Make(SerialConfig(), 240, 4);
  auto parallel = Make(ParallelConfig(), 240, 4);
  ASSERT_NE(serial, nullptr);
  ASSERT_NE(parallel, nullptr);

  BatchResponse a = serial->SearchBatch(queries_, 20);
  BatchResponse b = parallel->SearchBatch(queries_, 20);
  ASSERT_EQ(a.responses.size(), b.responses.size());
  for (size_t i = 0; i < a.responses.size(); ++i) {
    ExpectSameResponse(a.responses[i], b.responses[i]);
  }
  EXPECT_EQ(a.total, b.total);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngineKinds, ParallelEquivalenceTest,
    ::testing::ValuesIn(kAllEngineKinds),
    [](const ::testing::TestParamInfo<EngineKind>& info) {
      return std::string(EngineKindName(info.param)) == "single-term"
                 ? "single_term"
                 : std::string(EngineKindName(info.param));
    });

TEST(HdkParallelBuildTest, GlobalIndexIsPostingForPostingIdentical) {
  // Beyond the interface-level metrics: the HDK global index itself must
  // come out bit-identical under parallel construction.
  corpus::SyntheticCorpus corpus = TestCorpus();
  corpus::DocumentStore store;
  corpus.FillStore(240, &store);

  auto serial = HdkSearchEngine::Build(SerialConfig(), store,
                                       SplitEvenly(240, 4));
  auto parallel = HdkSearchEngine::Build(ParallelConfig(), store,
                                         SplitEvenly(240, 4));
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());

  const hdk::HdkIndexContents a = (*serial)->global_index().ExportContents();
  const hdk::HdkIndexContents b =
      (*parallel)->global_index().ExportContents();
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [key, entry] : a.entries()) {
    const hdk::KeyEntry* other = b.Find(key);
    ASSERT_NE(other, nullptr) << "missing key " << key.ToString();
    EXPECT_EQ(entry.global_df, other->global_df) << key.ToString();
    EXPECT_EQ(entry.is_hdk, other->is_hdk) << key.ToString();
    EXPECT_EQ(entry.postings, other->postings) << key.ToString();
  }
  // Identical protocol traffic, message for message.
  for (size_t k = 0; k < net::kNumMessageKinds; ++k) {
    const auto kind = static_cast<net::MessageKind>(k);
    EXPECT_EQ((*serial)->traffic()->ByKind(kind),
              (*parallel)->traffic()->ByKind(kind));
  }
}

TEST(ParallelStressTest, ConcurrentBatchesOverSharedEngine) {
  // Several external threads fire batches at ONE shared engine while the
  // engine's own pool fans each batch out. Origins interleave
  // nondeterministically, but ranking and posting traffic are
  // origin-independent, so every batch must reproduce the reference
  // results exactly — and the sharded traffic recorder must account for
  // every message (checked against the per-batch tallies).
  corpus::SyntheticCorpus corpus = TestCorpus();
  corpus::DocumentStore store;
  corpus.FillStore(240, &store);
  corpus::CollectionStats stats(store);
  corpus::QueryGenConfig qcfg;
  qcfg.min_term_df = 3;
  auto queries = corpus::QueryGenerator(qcfg, store, stats).Generate(30);
  ASSERT_GT(queries.size(), 10u);

  auto reference = MakeEngine(EngineKind::kHdk, SerialConfig(), store,
                              SplitEvenly(240, 4));
  ASSERT_TRUE(reference.ok());
  const BatchResponse expected = (*reference)->SearchBatch(queries, 20);

  auto shared = MakeEngine(EngineKind::kHdk, ParallelConfig(), store,
                           SplitEvenly(240, 4));
  ASSERT_TRUE(shared.ok());
  const net::TrafficCounters before = (*shared)->traffic()->Snapshot();

  constexpr size_t kCallers = 4;
  std::vector<BatchResponse> batches(kCallers);
  {
    std::vector<std::thread> callers;
    for (size_t c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        batches[c] = (*shared)->SearchBatch(queries, 20);
      });
    }
    for (std::thread& t : callers) t.join();
  }

  uint64_t messages = 0;
  uint64_t hops = 0;
  for (const BatchResponse& batch : batches) {
    ASSERT_EQ(batch.responses.size(), expected.responses.size());
    for (size_t i = 0; i < batch.responses.size(); ++i) {
      const SearchResponse& got = batch.responses[i];
      const SearchResponse& want = expected.responses[i];
      ASSERT_EQ(got.results.size(), want.results.size());
      for (size_t r = 0; r < got.results.size(); ++r) {
        EXPECT_EQ(got.results[r].doc, want.results[r].doc);
        EXPECT_EQ(got.results[r].score, want.results[r].score);
      }
      EXPECT_EQ(got.cost.postings_fetched, want.cost.postings_fetched);
      EXPECT_EQ(got.cost.keys_fetched, want.cost.keys_fetched);
      EXPECT_EQ(got.cost.probes, want.cost.probes);
      EXPECT_EQ(got.cost.pruned, want.cost.pruned);
    }
    EXPECT_EQ(batch.total.postings_fetched, expected.total.postings_fetched);
    messages += batch.total.messages;
    hops += batch.total.hops;
  }

  // No message lost or double-counted across the concurrent shards.
  const net::TrafficCounters after = (*shared)->traffic()->Snapshot();
  EXPECT_EQ(after.messages - before.messages, messages);
  EXPECT_EQ(after.hops - before.hops, hops);
}

}  // namespace
}  // namespace hdk::engine
