// The membership-lifecycle guarantee of the SearchEngine API: applying any
// sequence of join and DEPARTURE events leaves every backend
// posting-for-posting identical to a from-scratch build over the surviving
// document ranges — including the hard departure paths: reverse
// DFmax-reclassification (NDK -> HDK, full postings restored from the
// contribution ledger), retraction of keys whose knowledge basis left
// with the departed peer, and Ff re-admission of terms whose collection
// frequency fell back under the very-frequent threshold.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/query_gen.h"
#include "corpus/stats.h"
#include "corpus/synthetic.h"
#include "engine/centralized.h"
#include "engine/engine_factory.h"
#include "engine/hdk_engine.h"
#include "engine/membership.h"
#include "engine/partition.h"
#include "engine/st_engine.h"
#include "expect_departure.h"

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

EngineConfig ChurnConfig(size_t num_threads = 1) {
  EngineConfig config;
  config.hdk.df_max = 8;
  config.hdk.very_frequent_threshold = 450;
  config.hdk.window = 8;
  config.hdk.s_max = 3;
  config.num_threads = num_threads;
  return config;
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

void ExpectSameSearches(SearchEngine& a, SearchEngine& b,
                        const corpus::DocumentStore& store,
                        std::span<const DocRange> ranges) {
  corpus::CollectionStats stats(store, ranges);
  corpus::QueryGenConfig qcfg;
  qcfg.min_term_df = 3;
  auto queries = corpus::QueryGenerator(qcfg, store, stats).Generate(25);
  ASSERT_GT(queries.size(), 10u);
  for (const auto& q : queries) {
    auto ra = a.Search(q.terms, 20, /*origin=*/0);
    auto rb = b.Search(q.terms, 20, /*origin=*/0);
    ASSERT_EQ(ra.results.size(), rb.results.size());
    for (size_t i = 0; i < ra.results.size(); ++i) {
      EXPECT_EQ(ra.results[i].doc, rb.results[i].doc);
      EXPECT_NEAR(ra.results[i].score, rb.results[i].score, 1e-12);
    }
    EXPECT_EQ(ra.cost.postings_fetched, rb.cost.postings_fetched);
    EXPECT_EQ(ra.cost.keys_fetched, rb.cost.keys_fetched);
  }
}

class HdkChurnIdentityTest : public ::testing::TestWithParam<size_t> {};

TEST_P(HdkChurnIdentityTest, DepartureEqualsFromScratchBuild) {
  corpus::SyntheticCorpus corpus = ChurnCorpus();
  corpus::DocumentStore store;
  corpus.FillStore(360, &store);
  EngineConfig config = ChurnConfig(GetParam());

  auto churned = HdkSearchEngine::Build(config, store, SplitEvenly(360, 6));
  ASSERT_TRUE(churned.ok()) << churned.status().ToString();

  // Two departures, including a renumbering-sensitive middle peer.
  ASSERT_TRUE((*churned)
                  ->ApplyMembership(store, {MembershipEvent::Leave(1),
                                            MembershipEvent::Leave(3)})
                  .ok());
  ASSERT_EQ((*churned)->num_peers(), 4u);
  EXPECT_EQ((*churned)->num_documents(), 240u);
  // The hard path ran: some key's df fell back under DFmax.
  EXPECT_GT((*churned)->last_departure().reverse_reclassified, 0u);
  EXPECT_GT((*churned)->last_departure().migrated_keys, 0u);

  const std::vector<DocRange> survivors = (*churned)->peer_ranges();
  ASSERT_EQ(survivors.size(), 4u);
  auto scratch = HdkSearchEngine::Build(config, store, survivors);
  ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();

  ExpectSameContents((*scratch)->global_index().ExportContents(),
                     (*churned)->global_index().ExportContents());
  EXPECT_EQ((*churned)->global_index().TotalStoredPostings(),
            (*scratch)->global_index().TotalStoredPostings());
  ExpectSameSearches(**churned, **scratch, store, survivors);
}

TEST_P(HdkChurnIdentityTest, JoinLeaveJoinSequenceIsExact) {
  corpus::SyntheticCorpus corpus = ChurnCorpus();
  corpus::DocumentStore store;
  corpus.FillStore(120, &store);
  EngineConfig config = ChurnConfig(GetParam());
  // The Chord ring variant: departures must hold on both overlays.
  config.overlay = OverlayKind::kChord;

  auto churned = HdkSearchEngine::Build(config, store, SplitEvenly(120, 2));
  ASSERT_TRUE(churned.ok()) << churned.status().ToString();

  // Wave 1: two peers join, then one founding peer departs.
  corpus.FillStore(240, &store);
  {
    std::vector<MembershipEvent> events = JoinWave(120, 2, 60);
    events.push_back(MembershipEvent::Leave(0));
    ASSERT_TRUE((*churned)->ApplyMembership(store, events).ok());
  }
  ASSERT_EQ((*churned)->num_peers(), 3u);
  EXPECT_EQ((*churned)->num_documents(), 180u);
  EXPECT_EQ((*churned)->last_membership().joined_peers, 2u);
  EXPECT_EQ((*churned)->last_membership().departed_peers, 1u);

  // Wave 2: another join continues from the frontier (the departed range
  // stays a hole), then a second departure.
  corpus.FillStore(300, &store);
  {
    std::vector<MembershipEvent> events = JoinWave(240, 2, 30);
    events.push_back(MembershipEvent::Leave(2));
    ASSERT_TRUE((*churned)->ApplyMembership(store, events).ok());
  }
  ASSERT_EQ((*churned)->num_peers(), 4u);

  const std::vector<DocRange> survivors = (*churned)->peer_ranges();
  auto scratch = HdkSearchEngine::Build(config, store, survivors);
  ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();
  ExpectSameContents((*scratch)->global_index().ExportContents(),
                     (*churned)->global_index().ExportContents());
  ExpectSameSearches(**churned, **scratch, store, survivors);
}

INSTANTIATE_TEST_SUITE_P(Threads, HdkChurnIdentityTest,
                         ::testing::Values(static_cast<size_t>(1),
                                           static_cast<size_t>(4)),
                         [](const auto& info) {
                           return "threads_" + std::to_string(info.param);
                         });

// Builds the readmission scenario below into the empty `store` at the
// given engine thread count and departs the crossing peer.
void RunReadmissionScenario(size_t threads, corpus::DocumentStore& store,
                            std::unique_ptr<HdkSearchEngine>* out) {
  // The handcrafted collection of the growth test's hard paths, churned
  // BACK: wave 2 pushed term 1 over Ff (purge) and term 2 over DFmax
  // (reclassification + expansion of {2,3} by old peers). Departing the
  // wave-2 peer that carried those occurrences must revert both — term 1
  // re-enters the key vocabulary (targeted delta re-scan), {2} flips back
  // to a full-posting HDK, and the expansion key {2,3} is RETRACTED
  // because the knowledge that generated it is gone.
  EngineConfig config;
  config.hdk.df_max = 8;
  config.hdk.very_frequent_threshold = 25;
  config.hdk.window = 8;
  config.hdk.s_max = 3;
  config.num_threads = threads;

  auto filler = [](DocId d, uint32_t i) -> TermId {
    return 1000 + d * 16 + i;  // unique background terms
  };
  auto add_doc = [&](std::vector<TermId> front) {
    const DocId d = static_cast<DocId>(store.size());
    while (front.size() < 12) {
      front.push_back(filler(d, static_cast<uint32_t>(front.size())));
    }
    store.Add(std::move(front));
  };

  // Wave 1: 60 documents on 2 peers (cf(1) = 20, df(2) = 6, df(3) = 18).
  for (DocId d = 0; d < 60; ++d) {
    std::vector<TermId> front;
    if (d < 20) front.push_back(1);
    if (d >= 20 && d < 26) {
      front.push_back(2);
      front.push_back(3);
    }
    if (d >= 26 && d < 38) front.push_back(3);
    add_doc(std::move(front));
  }
  auto churned = HdkSearchEngine::Build(config, store, SplitEvenly(60, 2));
  ASSERT_TRUE(churned.ok()) << churned.status().ToString();

  // Wave 2: 60 documents on 2 joining peers. Peer 2 (docs 60..90) carries
  // everything that crosses the thresholds: cf(1) = 35 > 25, df(2) = 11 >
  // 8.
  for (DocId d = 60; d < 120; ++d) {
    std::vector<TermId> front;
    if (d >= 60 && d < 75) front.push_back(1);
    if (d >= 80 && d < 85) front.push_back(2);
    add_doc(std::move(front));
  }
  ASSERT_TRUE((*churned)->AddPeers(store, JoinRanges(60, 2, 30)).ok());
  EXPECT_EQ((*churned)->global_index().Peek(hdk::TermKey{1}), nullptr);
  EXPECT_NE((*churned)->global_index().Peek(hdk::TermKey{2, 3}), nullptr);

  // Churn the crossing peer out again.
  ASSERT_TRUE(
      (*churned)->ApplyMembership(store, {MembershipEvent::Leave(2)}).ok());
  const p2p::DepartureStats& d = (*churned)->last_departure();
  EXPECT_EQ(d.departed, 2u);
  EXPECT_GE(d.readmitted_terms, 1u);   // term 1: cf back to 20 <= 25
  EXPECT_GE(d.reverse_reclassified, 1u);  // {2}: df back to 6 <= 8
  EXPECT_GE(d.retracted_keys, 1u);     // {2,3} lost its basis
  EXPECT_GE(d.rescanned_peers, 1u);    // term-1 re-admission delta scans
  EXPECT_GT(d.repair_insertions, 0u);  // re-admitted keys travelled

  // Term 1 is a key again; {2} is a discriminative full-posting key; the
  // stale expansion {2,3} is gone.
  const hdk::KeyEntry* one = (*churned)->global_index().Peek(hdk::TermKey{1});
  ASSERT_NE(one, nullptr);
  EXPECT_EQ(one->global_df, 20u);
  const hdk::KeyEntry* two = (*churned)->global_index().Peek(hdk::TermKey{2});
  ASSERT_NE(two, nullptr);
  EXPECT_TRUE(two->is_hdk);
  EXPECT_EQ(two->global_df, 6u);
  EXPECT_EQ((*churned)->global_index().Peek(hdk::TermKey{2, 3}), nullptr);

  // And the whole index equals a from-scratch build over the survivors.
  const std::vector<DocRange> survivors = (*churned)->peer_ranges();
  ASSERT_EQ(survivors.size(), 3u);
  auto scratch = HdkSearchEngine::Build(config, store, survivors);
  ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();
  ExpectSameContents((*scratch)->global_index().ExportContents(),
                     (*churned)->global_index().ExportContents());
  *out = std::move(churned).value();
}

TEST(MembershipChurnTest, ReverseReclassificationAndFfReadmission) {
  // The only scenario that reaches the replay's Ff-readmission level-1
  // rescan and its BuildLevelDelta branch — run serially and on a 4-thread
  // pool (3 survivors, one replay task each), which must agree exactly.
  corpus::DocumentStore serial_store;
  std::unique_ptr<HdkSearchEngine> serial;
  ASSERT_NO_FATAL_FAILURE(RunReadmissionScenario(1, serial_store, &serial));
  corpus::DocumentStore parallel_store;
  std::unique_ptr<HdkSearchEngine> parallel;
  ASSERT_NO_FATAL_FAILURE(
      RunReadmissionScenario(4, parallel_store, &parallel));
  EXPECT_GT(parallel->global_index().num_shards(), 1u);

  ExpectSameDepartureStats(serial->last_departure(),
                           parallel->last_departure());
  ExpectSameContents(serial->global_index().ExportContents(),
                     parallel->global_index().ExportContents());
  EXPECT_EQ(serial->traffic()->total(), parallel->traffic()->total());
}

TEST(MembershipChurnTest, SingleTermDepartureEqualsFromScratchBuild) {
  corpus::SyntheticCorpus corpus = ChurnCorpus();
  corpus::DocumentStore store;
  corpus.FillStore(240, &store);
  EngineConfig config;
  config.num_threads = 1;
  config.overlay = OverlayKind::kChord;

  auto churned = SingleTermEngine::Build(config, store, SplitEvenly(240, 4));
  ASSERT_TRUE(churned.ok());
  ASSERT_TRUE((*churned)
                  ->ApplyMembership(store, {MembershipEvent::Leave(2)})
                  .ok());
  ASSERT_EQ((*churned)->num_peers(), 3u);
  EXPECT_EQ((*churned)->num_documents(), 180u);
  EXPECT_GT((*churned)->last_departure().removed_postings, 0u);

  const std::vector<DocRange>& survivors = (*churned)->peer_ranges();
  auto scratch = SingleTermEngine::Build(config, store, survivors);
  ASSERT_TRUE(scratch.ok());

  // Logical (placement-independent) identity, term by term.
  auto churned_contents = (*churned)->p2p_engine().ExportContents();
  auto scratch_contents = (*scratch)->p2p_engine().ExportContents();
  ASSERT_EQ(churned_contents.size(), scratch_contents.size());
  for (const auto& [term, pl] : scratch_contents) {
    auto it = churned_contents.find(term);
    ASSERT_NE(it, churned_contents.end()) << "missing term " << term;
    EXPECT_EQ(it->second, pl) << "term " << term;
  }
  ExpectSameSearches(**churned, **scratch, store, survivors);
}

TEST(MembershipChurnTest, CentralizedDepartureEqualsFromScratchBuild) {
  corpus::SyntheticCorpus corpus = ChurnCorpus();
  corpus::DocumentStore store;
  corpus.FillStore(240, &store);

  EngineConfig config;
  auto churned = MakeEngine(EngineKind::kCentralized, config, store,
                            SplitEvenly(240, 4));
  ASSERT_TRUE(churned.ok());
  ASSERT_TRUE((*churned)
                  ->ApplyMembership(store, {MembershipEvent::Leave(1),
                                            MembershipEvent::Leave(2)})
                  .ok());
  EXPECT_EQ((*churned)->num_documents(), 120u);

  auto* concrete = static_cast<CentralizedBm25Engine*>((*churned).get());
  const std::vector<DocRange>& survivors = concrete->peer_ranges();
  ASSERT_EQ(survivors.size(), 2u);
  auto scratch = MakeEngine(EngineKind::kCentralized, config, store,
                            survivors);
  ASSERT_TRUE(scratch.ok());
  auto* scratch_concrete =
      static_cast<CentralizedBm25Engine*>((*scratch).get());
  EXPECT_EQ(concrete->index().TotalPostings(),
            scratch_concrete->index().TotalPostings());
  EXPECT_EQ(concrete->index().vocabulary_size(),
            scratch_concrete->index().vocabulary_size());
  EXPECT_EQ(concrete->index().num_documents(),
            scratch_concrete->index().num_documents());
  ExpectSameSearches(**churned, **scratch, store, survivors);
}

TEST(MembershipChurnTest, ErrorPathsLeaveTheEngineUntouched) {
  corpus::SyntheticCorpus corpus = ChurnCorpus();
  corpus::DocumentStore store;
  corpus.FillStore(160, &store);

  for (EngineKind kind : kAllEngineKinds) {
    SCOPED_TRACE(EngineKindName(kind));
    EngineConfig config = {};
    config.hdk.df_max = 8;
    config.hdk.very_frequent_threshold = 450;
    config.hdk.window = 8;
    config.hdk.s_max = 3;
    // Overlapping build ranges would double-index shared documents and
    // corrupt later departures — rejected up front.
    EXPECT_FALSE(MakeEngine(kind, config, store, {{0, 50}, {25, 75}}).ok());

    auto engine = MakeEngine(kind, config, store, SplitEvenly(160, 4));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    const uint64_t docs_before = (*engine)->num_documents();
    const size_t peers_before = (*engine)->num_peers();

    // Departing an unknown peer.
    EXPECT_FALSE(
        (*engine)
            ->ApplyMembership(store, {MembershipEvent::Leave(99)})
            .ok());
    // Non-contiguous join range.
    EXPECT_FALSE(
        (*engine)
            ->ApplyMembership(store,
                              {MembershipEvent::Join({500, 540})})
            .ok());
    // A batch whose LAST event is invalid is rejected up front — the
    // valid prefix must not have been applied.
    EXPECT_FALSE(
        (*engine)
            ->ApplyMembership(store, {MembershipEvent::Leave(0),
                                      MembershipEvent::Leave(77)})
            .ok());
    // Empty batches and foreign stores.
    EXPECT_FALSE((*engine)
                     ->ApplyMembership(store,
                                       std::span<const MembershipEvent>())
                     .ok());
    corpus::DocumentStore other;
    ChurnCorpus().FillStore(160, &other);
    EXPECT_FALSE(
        (*engine)
            ->ApplyMembership(other, {MembershipEvent::Leave(0)})
            .ok());

    EXPECT_EQ((*engine)->num_documents(), docs_before);
    EXPECT_EQ((*engine)->num_peers(), peers_before);

    // Departing down to one peer is fine; departing the LAST peer is not.
    if (kind != EngineKind::kCentralized) {
      ASSERT_TRUE((*engine)
                      ->ApplyMembership(store, {MembershipEvent::Leave(3),
                                                MembershipEvent::Leave(2),
                                                MembershipEvent::Leave(1)})
                      .ok());
      EXPECT_EQ((*engine)->num_peers(), 1u);
    } else {
      ASSERT_TRUE((*engine)
                      ->ApplyMembership(store, {MembershipEvent::Leave(3),
                                                MembershipEvent::Leave(2),
                                                MembershipEvent::Leave(1)})
                      .ok());
    }
    EXPECT_FALSE(
        (*engine)->ApplyMembership(store, {MembershipEvent::Leave(0)}).ok());
  }
}

TEST(MembershipChurnTest, BatchOriginsStayInsideTheLivePeerSet) {
  // The rotation state can point past the shrunk peer set right after a
  // departure; SearchBatch's pre-assigned origins must all resolve inside
  // the live peers (this used to index out of the peer array).
  corpus::SyntheticCorpus corpus = ChurnCorpus();
  corpus::DocumentStore store;
  corpus.FillStore(240, &store);
  EngineConfig config = ChurnConfig();

  auto engine = HdkSearchEngine::Build(config, store, SplitEvenly(240, 6));
  ASSERT_TRUE(engine.ok());

  corpus::CollectionStats stats(store);
  corpus::QueryGenConfig qcfg;
  qcfg.min_term_df = 3;
  auto queries = corpus::QueryGenerator(qcfg, store, stats).Generate(20);
  ASSERT_GT(queries.size(), 10u);

  // Advance the rotation close to the high peer ids, then shrink hard.
  for (int i = 0; i < 5; ++i) {
    (void)(*engine)->Search(queries[0].terms, 5);
  }
  ASSERT_TRUE((*engine)
                  ->ApplyMembership(store, {MembershipEvent::Leave(5),
                                            MembershipEvent::Leave(4),
                                            MembershipEvent::Leave(3),
                                            MembershipEvent::Leave(2)})
                  .ok());
  ASSERT_EQ((*engine)->num_peers(), 2u);

  auto batch = (*engine)->SearchBatch(queries, 10);
  ASSERT_EQ(batch.responses.size(), queries.size());
  for (const auto& response : batch.responses) {
    EXPECT_LE(response.results.size(), 10u);
  }
}

}  // namespace
}  // namespace hdk::engine
