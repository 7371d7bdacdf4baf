// End-to-end reproduction smoke test: builds the full pipeline at a tiny
// scale and asserts the paper's three headline claims hold qualitatively:
//   (1) HDK retrieval traffic per query is far below the ST baseline and
//       bounded (Figure 6);
//   (2) HDK indexing costs more than ST indexing (Figures 3/4) but by a
//       bounded factor;
//   (3) HDK top-20 results overlap substantially with centralized BM25
//       (Figure 7).
#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "engine/centralized.h"
#include "engine/experiment.h"
#include "engine/overlap.h"

namespace hdk::engine {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    setup_ = new ExperimentSetup(ExperimentSetup::Tiny());
    ctx_ = new ExperimentContext(*setup_);
    auto point = ctx_->EnginesAt(setup_->max_peers);
    ASSERT_TRUE(point.ok()) << point.status().ToString();
    point_ = new EnginesAtPoint(std::move(point).value());
    queries_ = new std::vector<corpus::Query>(
        ctx_->MakeQueries(point_->num_docs, setup_->num_queries));
    ASSERT_GT(queries_->size(), 20u);

    auto centralized =
        CentralizedBm25Engine::Build(ctx_->GrowTo(point_->num_docs));
    ASSERT_TRUE(centralized.ok());
    centralized_ = centralized->release();
  }

  static void TearDownTestSuite() {
    delete centralized_;
    delete queries_;
    delete point_;
    delete ctx_;
    delete setup_;
  }

  static ExperimentSetup* setup_;
  static ExperimentContext* ctx_;
  static EnginesAtPoint* point_;
  static std::vector<corpus::Query>* queries_;
  static CentralizedBm25Engine* centralized_;
};

ExperimentSetup* EndToEndTest::setup_ = nullptr;
ExperimentContext* EndToEndTest::ctx_ = nullptr;
EnginesAtPoint* EndToEndTest::point_ = nullptr;
std::vector<corpus::Query>* EndToEndTest::queries_ = nullptr;
CentralizedBm25Engine* EndToEndTest::centralized_ = nullptr;

TEST_F(EndToEndTest, HdkRetrievalTrafficFarBelowSingleTerm) {
  double hdk_postings = 0, st_postings = 0;
  for (const auto& q : *queries_) {
    hdk_postings += static_cast<double>(
        point_->hdk_low->Search(q.terms, 20).cost.postings_fetched);
    st_postings += static_cast<double>(
        point_->st->Search(q.terms, 20).cost.postings_fetched);
  }
  hdk_postings /= static_cast<double>(queries_->size());
  st_postings /= static_cast<double>(queries_->size());
  // Figure 6: an "enormous reduction" — require at least 2x at tiny scale
  // (the gap grows with collection size).
  EXPECT_LT(hdk_postings * 2.0, st_postings)
      << "HDK " << hdk_postings << " vs ST " << st_postings;
}

TEST_F(EndToEndTest, HdkIndexingCostsMoreButBounded) {
  const double hdk = point_->hdk_low->InsertedPostingsPerPeer();
  const double st = point_->st->InsertedPostingsPerPeer();
  EXPECT_GT(hdk, st);          // Figure 4: HDK inserts more
  EXPECT_LT(hdk, st * 100.0);  // paper bound: at most ~40x at web scale
}

TEST_F(EndToEndTest, HigherDfMaxStoresMorePostingsPerNdk) {
  // DFmax=high keeps longer NDK lists but fewer multi-term keys; the
  // paper's trade-off must be visible in stored postings accounting.
  const auto& low = point_->hdk_low->global_index();
  const auto& high = point_->hdk_high->global_index();
  EXPECT_GE(low.TotalKeys(), high.TotalKeys());
}

TEST_F(EndToEndTest, OverlapWithCentralizedBm25IsSubstantial) {
  std::vector<std::vector<index::ScoredDoc>> hdk_results, bm25_results;
  for (const auto& q : *queries_) {
    hdk_results.push_back(
        point_->hdk_high->Search(q.terms, 20).results);
    bm25_results.push_back(centralized_->Rank(q.terms, 20));
  }
  double overlap = MeanTopKOverlap(hdk_results, bm25_results, 20);
  // Figure 7 reports 60-90% on Wikipedia; the tiny synthetic collection
  // with truncated NDKs should still clear a solid floor.
  EXPECT_GT(overlap, 0.3) << "mean top-20 overlap " << overlap;
}

TEST_F(EndToEndTest, HigherDfMaxImprovesOverlap) {
  std::vector<std::vector<index::ScoredDoc>> low_r, high_r, bm25_r;
  for (const auto& q : *queries_) {
    low_r.push_back(point_->hdk_low->Search(q.terms, 20).results);
    high_r.push_back(point_->hdk_high->Search(q.terms, 20).results);
    bm25_r.push_back(centralized_->Rank(q.terms, 20));
  }
  double low = MeanTopKOverlap(low_r, bm25_r, 20);
  double high = MeanTopKOverlap(high_r, bm25_r, 20);
  // Paper: "retrieval performance is similar to single-term indexing for
  // larger values of DFmax" — higher DFmax mimics BM25 better (allow a
  // small tolerance for noise at tiny scale).
  EXPECT_GE(high, low - 0.05);
}

TEST_F(EndToEndTest, RetrievalTrafficRespectsTheoreticalBound) {
  for (size_t i = 0; i < 20 && i < queries_->size(); ++i) {
    const auto& q = (*queries_)[i];
    auto exec = point_->hdk_low->Search(q.terms, 20);
    uint64_t nk = 0;
    {
      uint32_t qs = static_cast<uint32_t>(q.terms.size());
      uint32_t limit = std::min(qs, 3u);
      for (uint32_t s = 1; s <= limit; ++s) {
        uint64_t c = 1;
        for (uint32_t j = 1; j <= s; ++j) c = c * (qs - j + 1) / j;
        nk += c;
      }
    }
    EXPECT_LE(exec.cost.postings_fetched,
              nk * point_->hdk_low->config().hdk.df_max);
  }
}

}  // namespace
}  // namespace hdk::engine
