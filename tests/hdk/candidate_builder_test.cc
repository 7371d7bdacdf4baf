#include "hdk/candidate_builder.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "text/window.h"

namespace hdk::hdk {
namespace {

HdkParams SmallParams(uint32_t window = 5, Freq df_max = 1) {
  HdkParams p;
  p.window = window;
  p.df_max = df_max;
  p.s_max = std::min<uint32_t>(3, window);  // Validate: s_max <= window
  p.very_frequent_threshold = 1000000;
  return p;
}

TEST(CandidateBuilderLevel1Test, CountsDocumentFrequencies) {
  corpus::DocumentStore store;
  store.Add({1, 2, 1});  // doc 0
  store.Add({2, 3});     // doc 1
  CandidateBuilder builder(SmallParams());
  CandidateBuildStats stats;
  auto candidates = builder.BuildLevel1(store, 0, 2, {}, &stats);

  ASSERT_EQ(candidates.size(), 3u);
  EXPECT_EQ(candidates.at(TermKey{1u}).size(), 1u);
  EXPECT_EQ(candidates.at(TermKey{2u}).size(), 2u);
  EXPECT_EQ(candidates.at(TermKey{3u}).size(), 1u);
  // tf and doc length are carried in postings.
  EXPECT_EQ(candidates.at(TermKey{1u})[0].tf, 2u);
  EXPECT_EQ(candidates.at(TermKey{1u})[0].doc_length, 3u);
  EXPECT_EQ(stats.documents_scanned, 2u);
  EXPECT_EQ(stats.positions_scanned, 5u);
}

TEST(CandidateBuilderLevel1Test, ExcludesVeryFrequentTerms) {
  corpus::DocumentStore store;
  store.Add({1, 2});
  CandidateBuilder builder(SmallParams());
  auto candidates =
      builder.BuildLevel1(store, 0, 1, {1u}, nullptr);
  EXPECT_EQ(candidates.size(), 1u);
  EXPECT_TRUE(candidates.count(TermKey{2u}) > 0);
}

TEST(CandidateBuilderLevel1Test, RespectsDocRange) {
  corpus::DocumentStore store;
  store.Add({1});
  store.Add({2});
  store.Add({3});
  CandidateBuilder builder(SmallParams());
  auto candidates = builder.BuildLevel1(store, 1, 2, {}, nullptr);
  EXPECT_EQ(candidates.size(), 1u);
  EXPECT_TRUE(candidates.count(TermKey{2u}) > 0);
}

class Level2Test : public ::testing::Test {
 protected:
  // All terms expandable unless stated otherwise.
  void MakeOracle(std::initializer_list<TermId> terms) {
    for (TermId t : terms) oracle_.AddExpandableTerm(t);
  }
  SetNdkOracle oracle_;
};

TEST_F(Level2Test, PairsRequireWindowCoOccurrence) {
  corpus::DocumentStore store;
  // window = 3: terms 1 and 2 are 3 positions apart -> no co-occurrence;
  // terms 2 and 3 are adjacent.
  store.Add({1, 9, 9, 2, 3});
  MakeOracle({1, 2, 3});
  HdkParams p = SmallParams(/*window=*/3);
  CandidateBuilder builder(p);
  auto candidates = builder.BuildLevel(2, store, 0, 1, oracle_, nullptr);

  EXPECT_EQ(candidates.count(TermKey{1, 2}), 0u);
  EXPECT_EQ(candidates.count(TermKey{2, 3}), 1u);
  // 9 is not expandable: no keys with it.
  EXPECT_EQ(candidates.count(TermKey{2u, 9u}), 0u);
}

TEST_F(Level2Test, WiderWindowFindsDistantPairs) {
  corpus::DocumentStore store;
  store.Add({1, 9, 9, 2});
  MakeOracle({1, 2});
  CandidateBuilder builder(SmallParams(/*window=*/4));
  auto candidates = builder.BuildLevel(2, store, 0, 1, oracle_, nullptr);
  EXPECT_EQ(candidates.count(TermKey{1, 2}), 1u);
}

TEST_F(Level2Test, DfCountsDocumentsOnce) {
  corpus::DocumentStore store;
  store.Add({1, 2, 1, 2, 1, 2});  // many co-occurrences, one document
  store.Add({1, 2});
  MakeOracle({1, 2});
  CandidateBuilder builder(SmallParams(/*window=*/2));
  auto candidates = builder.BuildLevel(2, store, 0, 2, oracle_, nullptr);
  ASSERT_EQ(candidates.count(TermKey{1, 2}), 1u);
  const index::PostingList& pl = candidates.at(TermKey{1, 2});
  EXPECT_EQ(pl.size(), 2u);           // df = 2 documents
  EXPECT_GT(pl[0].tf, 1u);            // multiple windows in doc 0
  EXPECT_EQ(pl[1].tf, 1u);
}

TEST_F(Level2Test, NonExpandableNewTermIsHole) {
  corpus::DocumentStore store;
  store.Add({1, 7, 2});
  MakeOracle({1, 2});  // 7 missing
  CandidateBuilder builder(SmallParams(/*window=*/3));
  auto candidates = builder.BuildLevel(2, store, 0, 1, oracle_, nullptr);
  // {1,2} co-occur within window 3 (positions 0 and 2).
  EXPECT_EQ(candidates.count(TermKey{1, 2}), 1u);
  EXPECT_EQ(candidates.count(TermKey{1, 7}), 0u);
  EXPECT_EQ(candidates.count(TermKey{2, 7}), 0u);
}

TEST_F(Level2Test, SelfPairsNeverForm) {
  corpus::DocumentStore store;
  store.Add({1, 1, 1});
  MakeOracle({1});
  CandidateBuilder builder(SmallParams(/*window=*/3));
  auto candidates = builder.BuildLevel(2, store, 0, 1, oracle_, nullptr);
  EXPECT_TRUE(candidates.empty());
}

TEST(Level3Test, RequiresAllPairsNonDiscriminative) {
  corpus::DocumentStore store;
  store.Add({1, 2, 3});
  store.Add({1, 2, 3});

  SetNdkOracle oracle;
  for (TermId t : {1u, 2u, 3u}) oracle.AddExpandableTerm(t);
  // Only {1,2} and {1,3} are NDKs; {2,3} is missing.
  oracle.AddNdk(TermKey{1, 2});
  oracle.AddNdk(TermKey{1, 3});

  CandidateBuilder builder(SmallParams(/*window=*/5));
  CandidateBuildStats stats;
  auto candidates = builder.BuildLevel(3, store, 0, 2, oracle, &stats);
  // The {2,3} pair is not known non-discriminative, so no triple may form
  // (the candidate pool filter rejects it before any formation event).
  EXPECT_EQ(candidates.count(TermKey{1, 2, 3}), 0u);

  // Adding the missing pair unlocks the triple.
  oracle.AddNdk(TermKey{2, 3});
  candidates = builder.BuildLevel(3, store, 0, 2, oracle, nullptr);
  ASSERT_EQ(candidates.count(TermKey{1, 2, 3}), 1u);
  EXPECT_EQ(candidates.at(TermKey{1, 2, 3}).size(), 2u);  // df = 2
}

TEST(Level3Test, TripleNeedsWindowCoOccurrence) {
  corpus::DocumentStore store;
  store.Add({1, 2, 9, 9, 9, 3});  // 1,2 adjacent; 3 far away

  SetNdkOracle oracle;
  for (TermId t : {1u, 2u, 3u}) oracle.AddExpandableTerm(t);
  oracle.AddNdk(TermKey{1, 2});
  oracle.AddNdk(TermKey{1, 3});
  oracle.AddNdk(TermKey{2, 3});

  CandidateBuilder builder(SmallParams(/*window=*/3));
  auto candidates = builder.BuildLevel(3, store, 0, 1, oracle, nullptr);
  EXPECT_EQ(candidates.count(TermKey{1, 2, 3}), 0u);

  CandidateBuilder wide(SmallParams(/*window=*/6));
  candidates = wide.BuildLevel(3, store, 0, 1, oracle, nullptr);
  EXPECT_EQ(candidates.count(TermKey{1, 2, 3}), 1u);
}

TEST(CandidateOracleAgreementTest, Level2MatchesWindowOracle) {
  // Every generated pair must co-occur per WindowCoOccurs, and every
  // co-occurring expandable pair must be generated.
  corpus::DocumentStore store;
  store.Add({4, 1, 5, 2, 1, 3});
  store.Add({2, 2, 4, 1});
  store.Add({5, 3, 3, 1, 2, 4, 5});

  SetNdkOracle oracle;
  for (TermId t : {1u, 2u, 3u, 4u, 5u}) oracle.AddExpandableTerm(t);

  const uint32_t w = 3;
  CandidateBuilder builder(SmallParams(w));
  auto candidates = builder.BuildLevel(2, store, 0, 3, oracle, nullptr);

  for (TermId a = 1; a <= 5; ++a) {
    for (TermId b = a + 1; b <= 5; ++b) {
      TermKey key{a, b};
      uint64_t expected_df = 0;
      for (DocId d = 0; d < 3; ++d) {
        std::vector<TermId> kv{a, b};
        if (text::WindowCoOccurs(store.Tokens(d), w, kv)) ++expected_df;
      }
      auto it = candidates.find(key);
      uint64_t actual_df = it == candidates.end() ? 0 : it->second.size();
      EXPECT_EQ(actual_df, expected_df) << key.ToString();
    }
  }
}

}  // namespace
}  // namespace hdk::hdk
