// The central correctness property of the distributed implementation:
// the indexing protocol run over any number of peers and either overlay
// produces EXACTLY the logical global index that the centralized
// reference indexer computes (paper Section 3.1 — the level-wise protocol
// with NDK notifications reconstructs global knowledge losslessly).
#include "p2p/indexing_protocol.h"

#include <memory>
#include <tuple>

#include <gtest/gtest.h>

#include "corpus/stats.h"
#include "corpus/synthetic.h"
#include "engine/overlay_factory.h"
#include "hdk/indexer.h"

namespace hdk::p2p {
namespace {

using engine::MakeOverlay;
using engine::OverlayKind;

struct Fixture {
  corpus::DocumentStore store;
  std::unique_ptr<corpus::CollectionStats> stats;
  HdkParams params;

  explicit Fixture(uint64_t docs = 180) {
    corpus::SyntheticConfig cfg;
    cfg.seed = 777;
    cfg.vocabulary_size = 3000;
    cfg.num_topics = 12;
    cfg.topic_width = 35;
    cfg.mean_doc_length = 50.0;
    cfg.topic_share = 0.7;
    corpus::SyntheticCorpus corpus(cfg);
    corpus.FillStore(docs, &store);
    stats = std::make_unique<corpus::CollectionStats>(store);

    params.df_max = 10;
    params.very_frequent_threshold = 500;
    params.window = 8;
    params.s_max = 3;
  }

  std::vector<std::pair<DocId, DocId>> Ranges(uint32_t peers) const {
    std::vector<std::pair<DocId, DocId>> out;
    DocId per = static_cast<DocId>(store.size() / peers);
    for (uint32_t p = 0; p < peers; ++p) {
      DocId first = p * per;
      DocId last = (p + 1 == peers) ? static_cast<DocId>(store.size())
                                    : (p + 1) * per;
      out.emplace_back(first, last);
    }
    return out;
  }
};

void ExpectSameContents(const hdk::HdkIndexContents& a,
                        const hdk::HdkIndexContents& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [key, entry] : a.entries()) {
    const hdk::KeyEntry* other = b.Find(key);
    ASSERT_NE(other, nullptr) << "missing key " << key.ToString();
    EXPECT_EQ(entry.global_df, other->global_df) << key.ToString();
    EXPECT_EQ(entry.is_hdk, other->is_hdk) << key.ToString();
    EXPECT_EQ(entry.postings, other->postings) << key.ToString();
  }
}

class ProtocolEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<OverlayKind, uint32_t>> {};

TEST_P(ProtocolEquivalenceTest, DistributedEqualsCentralized) {
  Fixture fx;
  const auto [kind, peers] = GetParam();

  // Centralized reference.
  hdk::CentralizedHdkIndexer reference(fx.params);
  auto expected = reference.Build(fx.store, *fx.stats);
  ASSERT_TRUE(expected.ok());

  // Distributed protocol.
  auto overlay = MakeOverlay(kind, peers, 42);
  net::TrafficRecorder traffic;
  HdkIndexingProtocol protocol(fx.params, fx.store, overlay.get(),
                               &traffic);
  auto global = protocol.Run(fx.Ranges(peers), *fx.stats);
  ASSERT_TRUE(global.ok());

  ExpectSameContents(*expected, (*global)->ExportContents());
}

INSTANTIATE_TEST_SUITE_P(
    OverlaysAndPeerCounts, ProtocolEquivalenceTest,
    ::testing::Combine(::testing::Values(OverlayKind::kPGrid,
                                         OverlayKind::kChord),
                       ::testing::Values(1u, 2u, 4u, 7u)),
    [](const auto& info) {
      std::string kind = std::get<0>(info.param) == OverlayKind::kPGrid
                             ? "PGrid"
                             : "Chord";
      return kind + "_" + std::to_string(std::get<1>(info.param)) +
             "peers";
    });

TEST(IndexingProtocolTest, ReportAccountsInsertions) {
  Fixture fx;
  auto overlay = MakeOverlay(OverlayKind::kPGrid, 4, 42);
  net::TrafficRecorder traffic;
  HdkIndexingProtocol protocol(fx.params, fx.store, overlay.get(),
                               &traffic);
  auto global = protocol.Run(fx.Ranges(4), *fx.stats);
  ASSERT_TRUE(global.ok());
  const IndexingReport& report = protocol.report();

  ASSERT_EQ(report.levels.size(), fx.params.s_max);
  // Total inserted postings equals the insert-message payload sum.
  EXPECT_EQ(report.TotalInsertedPostings(),
            traffic.ByKind(net::MessageKind::kInsertPostings).postings);
  // Per-peer insertions sum to the total.
  uint64_t per_peer_sum = 0;
  for (uint64_t v : report.inserted_postings_per_peer) per_peer_sum += v;
  EXPECT_EQ(per_peer_sum, report.TotalInsertedPostings());
  // Inserted >= stored (NDK truncation).
  EXPECT_GE(report.TotalInsertedPostings(),
            (*global)->TotalStoredPostings());
  // Some NDKs must exist at level 1 for the fixture to be meaningful.
  EXPECT_GT(report.levels[0].ndks, 0u);
  // NDK notifications were sent for expansion at levels < s_max.
  EXPECT_GT(report.levels[0].notifications, 0u);
}

TEST(IndexingProtocolTest, PeerCountDoesNotChangeLogicalIndex) {
  Fixture fx;
  hdk::HdkIndexContents first;
  bool have_first = false;
  for (uint32_t peers : {1u, 3u, 6u}) {
    auto overlay = MakeOverlay(OverlayKind::kPGrid, peers, 42);
    net::TrafficRecorder traffic;
    HdkIndexingProtocol protocol(fx.params, fx.store, overlay.get(),
                                 &traffic);
    auto global = protocol.Run(fx.Ranges(peers), *fx.stats);
    ASSERT_TRUE(global.ok());
    auto contents = (*global)->ExportContents();
    if (!have_first) {
      first = std::move(contents);
      have_first = true;
    } else {
      ExpectSameContents(first, contents);
    }
  }
}

TEST(IndexingProtocolTest, RejectsMismatchedPeerRanges) {
  Fixture fx;
  auto overlay = MakeOverlay(OverlayKind::kPGrid, 4, 42);
  net::TrafficRecorder traffic;
  HdkIndexingProtocol protocol(fx.params, fx.store, overlay.get(),
                               &traffic);
  // 2 ranges vs 4 overlay peers.
  EXPECT_FALSE(protocol.Run(fx.Ranges(2), *fx.stats).ok());
  // Out-of-range documents.
  std::vector<std::pair<DocId, DocId>> bad(4, {0, 1 << 30});
  EXPECT_FALSE(protocol.Run(bad, *fx.stats).ok());
  // Two peers sharing documents 40-49: a contribution is derived from its
  // peer's range, so ranges must be disjoint.
  const auto overlapping = protocol.Run({{0, 50}, {40, 90}, {90, 90},
                                         {90, 120}},
                                        *fx.stats);
  ASSERT_FALSE(overlapping.ok());
  EXPECT_NE(overlapping.status().ToString().find("overlap"),
            std::string::npos);
  // Empty peer set.
  EXPECT_FALSE(protocol.Run({}, *fx.stats).ok());
}

TEST(IndexingProtocolTest, GrowEqualsFromScratchRun) {
  // The protocol-level version of the incremental-growth guarantee: Run
  // over a prefix + Grow over the delta == one Run over everything.
  Fixture fx(180);
  corpus::DocumentStore prefix_store;  // the same first 90 docs
  {
    corpus::SyntheticConfig cfg;
    cfg.seed = 777;
    cfg.vocabulary_size = 3000;
    cfg.num_topics = 12;
    cfg.topic_width = 35;
    cfg.mean_doc_length = 50.0;
    cfg.topic_share = 0.7;
    corpus::SyntheticCorpus corpus(cfg);
    corpus.FillStore(90, &prefix_store);
  }
  corpus::CollectionStats prefix_stats(prefix_store);

  // Incremental: 2 peers over 90 docs, then 2 more join with 90 more.
  auto overlay = MakeOverlay(OverlayKind::kPGrid, 2, 42);
  net::TrafficRecorder traffic;
  HdkIndexingProtocol protocol(fx.params, fx.store, overlay.get(),
                               &traffic);
  auto grown = protocol.Run({{0, 45}, {45, 90}}, prefix_stats);
  ASSERT_TRUE(grown.ok());
  ASSERT_TRUE(overlay->AddPeer().ok());
  ASSERT_TRUE(overlay->AddPeer().ok());
  GrowthStats growth;
  ASSERT_TRUE(
      protocol.Grow({{90, 135}, {135, 180}}, *fx.stats, &growth).ok());
  EXPECT_EQ(growth.joined_peers, 2u);
  EXPECT_EQ(growth.delta_documents, 90u);
  EXPECT_GT(growth.delta_insertions, 0u);

  // From scratch: 4 peers over all 180 docs.
  auto overlay_b = MakeOverlay(OverlayKind::kPGrid, 4, 42);
  net::TrafficRecorder traffic_b;
  HdkIndexingProtocol protocol_b(fx.params, fx.store, overlay_b.get(),
                                 &traffic_b);
  auto scratch =
      protocol_b.Run({{0, 45}, {45, 90}, {90, 135}, {135, 180}}, *fx.stats);
  ASSERT_TRUE(scratch.ok());

  ExpectSameContents((*scratch)->ExportContents(),
                     (*grown)->ExportContents());
}

TEST(IndexingProtocolTest, GrowValidatesRanges) {
  Fixture fx;
  auto overlay = MakeOverlay(OverlayKind::kPGrid, 4, 42);
  net::TrafficRecorder traffic;
  HdkIndexingProtocol protocol(fx.params, fx.store, overlay.get(),
                               &traffic);
  // Grow before Run fails.
  EXPECT_FALSE(protocol.Grow({{0, 10}}, *fx.stats).ok());
  auto global = protocol.Run(fx.Ranges(4), *fx.stats);
  ASSERT_TRUE(global.ok());
  // A second Run is rejected.
  EXPECT_FALSE(protocol.Run(fx.Ranges(4), *fx.stats).ok());
  // Overlay was not grown.
  EXPECT_FALSE(protocol.Grow({{180, 200}}, *fx.stats).ok());
  ASSERT_TRUE(overlay->AddPeer().ok());
  // Non-contiguous join range.
  EXPECT_FALSE(protocol.Grow({{200, 220}}, *fx.stats).ok());
}

TEST(IndexingProtocolTest, MoreExpensiveThanSingleTermButBounded) {
  // Sanity on the paper's qualitative claim: HDK indexing inserts more
  // postings than single-term indexing (Figure 4), by a bounded factor.
  Fixture fx;
  auto overlay = MakeOverlay(OverlayKind::kPGrid, 4, 42);
  net::TrafficRecorder traffic;
  HdkIndexingProtocol protocol(fx.params, fx.store, overlay.get(),
                               &traffic);
  auto global = protocol.Run(fx.Ranges(4), *fx.stats);
  ASSERT_TRUE(global.ok());
  const IndexingReport& report = protocol.report();

  const uint64_t st_postings = [&] {
    uint64_t n = 0;
    for (const auto& doc : fx.store.docs()) {
      std::vector<TermId> distinct(doc.tokens.begin(), doc.tokens.end());
      std::sort(distinct.begin(), distinct.end());
      distinct.erase(std::unique(distinct.begin(), distinct.end()),
                     distinct.end());
      n += distinct.size();
    }
    return n;
  }();
  EXPECT_GT(report.TotalInsertedPostings(), st_postings / 2);
  EXPECT_LT(report.TotalInsertedPostings(), st_postings * 100);
}

}  // namespace
}  // namespace hdk::p2p
