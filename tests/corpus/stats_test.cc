#include "corpus/stats.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/synthetic.h"

namespace hdk::corpus {
namespace {

DocumentStore TinyStore() {
  DocumentStore store;
  store.Add({0, 1, 0});     // doc 0: term0 x2, term1
  store.Add({1, 2});        // doc 1: term1, term2
  store.Add({0});           // doc 2: term0
  return store;
}

TEST(CollectionStatsTest, CountsDocumentsAndTokens) {
  DocumentStore store = TinyStore();
  CollectionStats stats(store);
  EXPECT_EQ(stats.num_documents(), 3u);
  EXPECT_EQ(stats.total_tokens(), 6u);
  EXPECT_NEAR(stats.average_document_length(), 2.0, 1e-9);
  EXPECT_EQ(stats.vocabulary_size(), 3u);
}

TEST(CollectionStatsTest, CollectionFrequencies) {
  CollectionStats stats{TinyStore()};
  EXPECT_EQ(stats.CollectionFrequency(0), 3u);
  EXPECT_EQ(stats.CollectionFrequency(1), 2u);
  EXPECT_EQ(stats.CollectionFrequency(2), 1u);
  EXPECT_EQ(stats.CollectionFrequency(99), 0u);
}

TEST(CollectionStatsTest, DocumentFrequencies) {
  CollectionStats stats{TinyStore()};
  EXPECT_EQ(stats.DocumentFrequency(0), 2u);
  EXPECT_EQ(stats.DocumentFrequency(1), 2u);
  EXPECT_EQ(stats.DocumentFrequency(2), 1u);
  EXPECT_EQ(stats.DocumentFrequency(99), 0u);
}

TEST(CollectionStatsTest, RankFrequenciesSortedDescending) {
  CollectionStats stats{TinyStore()};
  const auto& rf = stats.RankFrequencies();
  ASSERT_EQ(rf.size(), 3u);
  EXPECT_EQ(rf[0], 3u);
  EXPECT_EQ(rf[1], 2u);
  EXPECT_EQ(rf[2], 1u);
}

TEST(CollectionStatsTest, VeryFrequentTerms) {
  CollectionStats stats{TinyStore()};
  EXPECT_EQ(stats.VeryFrequentTerms(2), (std::vector<TermId>{0}));
  EXPECT_EQ(stats.VeryFrequentTerms(1), (std::vector<TermId>{0, 1}));
  EXPECT_TRUE(stats.VeryFrequentTerms(10).empty());
}

TEST(CollectionStatsTest, Hapax) {
  CollectionStats stats{TinyStore()};
  EXPECT_EQ(stats.NumHapax(), 1u);  // term 2
}

TEST(CollectionStatsTest, EmptyStore) {
  DocumentStore store;
  CollectionStats stats(store);
  EXPECT_EQ(stats.num_documents(), 0u);
  EXPECT_EQ(stats.vocabulary_size(), 0u);
  EXPECT_EQ(stats.average_document_length(), 0.0);
}

void ExpectSameStats(const CollectionStats& want,
                     const CollectionStats& got) {
  EXPECT_EQ(want.num_documents(), got.num_documents());
  EXPECT_EQ(want.total_tokens(), got.total_tokens());
  EXPECT_EQ(want.average_document_length(), got.average_document_length());
  EXPECT_EQ(want.vocabulary_size(), got.vocabulary_size());
  EXPECT_EQ(std::vector<Freq>(want.cf().begin(), want.cf().end()),
            std::vector<Freq>(got.cf().begin(), got.cf().end()));
  EXPECT_EQ(std::vector<Freq>(want.df().begin(), want.df().end()),
            std::vector<Freq>(got.df().begin(), got.df().end()));
  EXPECT_EQ(want.RankFrequencies(), got.RankFrequencies());
}

TEST(CollectionStatsTest, AddedAndRemovedRangesEqualTheRangesConstructor) {
  SyntheticConfig cfg;
  cfg.seed = 5;
  cfg.vocabulary_size = 2000;
  cfg.num_topics = 10;
  cfg.topic_width = 30;
  cfg.mean_doc_length = 30.0;
  DocumentStore store;
  SyntheticCorpus(cfg).FillStore(200, &store);
  using Ranges = std::vector<std::pair<DocId, DocId>>;

  // A join: two new ranges on top of a holed collection.
  CollectionStats grown(store, Ranges{{0, 40}, {80, 120}});
  grown.AddRanges(store, Ranges{{120, 160}, {160, 200}});
  ExpectSameStats(CollectionStats(store, Ranges{{0, 40}, {80, 200}}), grown);

  // A departure out of the middle, then the last range: the arrays
  // shrink back to the largest surviving term id.
  CollectionStats shrunk(store, Ranges{{0, 50}, {50, 100}, {100, 200}});
  shrunk.RemoveRanges(store, Ranges{{50, 100}});
  ExpectSameStats(CollectionStats(store, Ranges{{0, 50}, {100, 200}}),
                  shrunk);
  shrunk.RemoveRanges(store, Ranges{{100, 200}});
  ExpectSameStats(CollectionStats(store, Ranges{{0, 50}}), shrunk);
  shrunk.RemoveRanges(store, Ranges{{0, 50}});
  ExpectSameStats(CollectionStats(store, Ranges{}), shrunk);
}

TEST(CollectionStatsTest, RemovingTheHighestTermTrimsTheArrays) {
  DocumentStore store = TinyStore();
  store.Add({});  // doc 3: no tokens
  using Ranges = std::vector<std::pair<DocId, DocId>>;
  CollectionStats stats(store);
  stats.RemoveRanges(store, Ranges{{1, 2}});  // doc 1 holds term 2 only
  ExpectSameStats(CollectionStats(store, Ranges{{0, 1}, {2, 4}}), stats);
  EXPECT_EQ(stats.cf().size(), 2u);
  // Only the empty document left: one zero slot, like a rescan.
  stats.RemoveRanges(store, Ranges{{0, 1}, {2, 3}});
  ExpectSameStats(CollectionStats(store, Ranges{{3, 4}}), stats);
  EXPECT_EQ(stats.cf().size(), 1u);
}

TEST(DocumentStoreTest, AddAssignsDenseIds) {
  DocumentStore store;
  EXPECT_EQ(store.Add({1, 2}), 0u);
  EXPECT_EQ(store.Add({3}), 1u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.TotalTokens(), 3u);
  EXPECT_EQ(store.Get(1).tokens, (std::vector<TermId>{3}));
  EXPECT_EQ(store.Tokens(0).size(), 2u);
}

}  // namespace
}  // namespace hdk::corpus
