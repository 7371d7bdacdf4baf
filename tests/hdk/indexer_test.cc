#include "hdk/indexer.h"

#include <algorithm>
#include <unordered_set>

#include <gtest/gtest.h>

#include "corpus/synthetic.h"
#include "text/window.h"

namespace hdk::hdk {
namespace {

// A small synthetic collection with enough co-occurrence to produce
// multi-term keys.
class HdkIndexerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus::SyntheticConfig cfg;
    cfg.seed = 4242;
    cfg.vocabulary_size = 4000;
    cfg.num_topics = 15;
    cfg.topic_width = 40;
    cfg.mean_doc_length = 60.0;
    cfg.topic_share = 0.7;
    corpus::SyntheticCorpus corpus(cfg);
    corpus.FillStore(250, &store_);
    stats_ = std::make_unique<corpus::CollectionStats>(store_);

    params_.df_max = 12;
    params_.very_frequent_threshold = 800;
    params_.window = 8;
    params_.s_max = 3;
  }

  Result<HdkIndexContents> BuildIndex(BuildReport* report = nullptr) {
    CentralizedHdkIndexer indexer(params_);
    return indexer.Build(store_, *stats_, report);
  }

  corpus::DocumentStore store_;
  std::unique_ptr<corpus::CollectionStats> stats_;
  HdkParams params_;
};

TEST_F(HdkIndexerTest, BuildsNonTrivialIndex) {
  BuildReport report;
  auto contents = BuildIndex(&report);
  ASSERT_TRUE(contents.ok());
  EXPECT_GT(contents->size(), 0u);
  ASSERT_EQ(report.levels.size(), 3u);
  EXPECT_GT(report.levels[0].candidates, 0u);
  // The collection must be rich enough to produce level-2 keys, otherwise
  // the fixture is useless.
  EXPECT_GT(report.levels[1].candidates, 0u);
}

TEST_F(HdkIndexerTest, KeySizesRespectSizeFiltering) {
  auto contents = BuildIndex();
  ASSERT_TRUE(contents.ok());
  for (const auto& [key, entry] : contents->entries()) {
    EXPECT_GE(key.size(), 1u);
    EXPECT_LE(key.size(), params_.s_max);
  }
}

TEST_F(HdkIndexerTest, HdkAndNdkClassificationByDfMax) {
  auto contents = BuildIndex();
  ASSERT_TRUE(contents.ok());
  for (const auto& [key, entry] : contents->entries()) {
    if (entry.is_hdk) {
      EXPECT_LE(entry.global_df, params_.df_max) << key.ToString();
      // HDKs store FULL posting lists.
      EXPECT_EQ(entry.postings.size(), entry.global_df) << key.ToString();
    } else {
      EXPECT_GT(entry.global_df, params_.df_max) << key.ToString();
      // NDK posting lists are truncated to top-DFmax.
      EXPECT_EQ(entry.postings.size(), params_.df_max) << key.ToString();
    }
  }
}

TEST_F(HdkIndexerTest, HdksAreIntrinsicallyDiscriminative) {
  // Paper Def. 5: every proper sub-key of an HDK of size >= 2 must be
  // non-discriminative (and hence present in the index as an NDK).
  auto contents = BuildIndex();
  ASSERT_TRUE(contents.ok());
  size_t multi_term_hdks = 0;
  for (const auto& [key, entry] : contents->entries()) {
    if (!entry.is_hdk || key.size() < 2) continue;
    ++multi_term_hdks;
    for (uint32_t i = 0; i < key.size(); ++i) {
      TermKey sub = key.DropTerm(i);
      const KeyEntry* sub_entry = contents->Find(sub);
      ASSERT_NE(sub_entry, nullptr)
          << "missing sub-key " << sub.ToString() << " of "
          << key.ToString();
      EXPECT_FALSE(sub_entry->is_hdk);
      EXPECT_GT(sub_entry->global_df, params_.df_max);
    }
  }
  EXPECT_GT(multi_term_hdks, 0u) << "fixture produced no multi-term HDKs";
}

TEST_F(HdkIndexerTest, NoIndexedKeyIsSupersetOfAnHdk) {
  // Redundancy filtering: supersets of discriminative keys are never
  // stored.
  auto contents = BuildIndex();
  ASSERT_TRUE(contents.ok());
  std::vector<TermKey> hdks;
  for (const auto& [key, entry] : contents->entries()) {
    if (entry.is_hdk) hdks.push_back(key);
  }
  for (const auto& [key, entry] : contents->entries()) {
    for (const TermKey& h : hdks) {
      if (key.size() > h.size()) {
        EXPECT_FALSE(key.ContainsAll(h))
            << key.ToString() << " is a superset of HDK " << h.ToString();
      }
    }
  }
}

TEST_F(HdkIndexerTest, DfAntiMonotonicity) {
  // df(superset) <= df(subset) for every indexed key pair.
  auto contents = BuildIndex();
  ASSERT_TRUE(contents.ok());
  for (const auto& [key, entry] : contents->entries()) {
    if (key.size() < 2) continue;
    for (uint32_t i = 0; i < key.size(); ++i) {
      const KeyEntry* sub = contents->Find(key.DropTerm(i));
      if (sub != nullptr) {
        EXPECT_LE(entry.global_df, sub->global_df);
      }
    }
  }
}

TEST_F(HdkIndexerTest, HdkPostingsMatchWindowOracle) {
  // Every multi-term HDK's posting list must be exactly its window events
  // (spot-check a sample): per document where its terms co-occur within
  // the window, tf counts the positions holding one of its terms with the
  // others among the w-1 positions before.
  auto contents = BuildIndex();
  ASSERT_TRUE(contents.ok());
  const uint32_t w = params_.window;
  size_t checked = 0;
  for (const auto& [key, entry] : contents->entries()) {
    if (!entry.is_hdk || key.size() < 2) continue;
    if (++checked > 25) break;  // sample
    std::vector<index::Posting> expected;
    for (DocId d = 0; d < store_.size(); ++d) {
      const std::span<const TermId> tokens = store_.Tokens(d);
      uint32_t events = 0;
      for (size_t p = 0; p < tokens.size(); ++p) {
        if (!key.Contains(tokens[p])) continue;
        const size_t start = p + 1 >= w ? p + 1 - w : 0;
        bool all = true;
        for (TermId t : key.terms()) {
          if (t == tokens[p]) continue;
          all = all && std::find(tokens.begin() + start, tokens.begin() + p,
                                 t) != tokens.begin() + p;
        }
        if (all) ++events;
      }
      if (events > 0) {
        EXPECT_TRUE(text::WindowCoOccurs(tokens, w, key.terms()));
        expected.push_back(
            {d, events, static_cast<uint32_t>(tokens.size())});
      }
    }
    EXPECT_EQ(entry.postings, index::PostingList(std::move(expected)))
        << key.ToString();
  }
  EXPECT_GT(checked, 0u);
}

TEST_F(HdkIndexerTest, VeryFrequentTermsNeverAppearInKeys) {
  auto vf = stats_->VeryFrequentTerms(params_.very_frequent_threshold);
  ASSERT_FALSE(vf.empty()) << "fixture needs very frequent terms";
  auto contents = BuildIndex();
  ASSERT_TRUE(contents.ok());
  for (const auto& [key, entry] : contents->entries()) {
    for (TermId t : vf) {
      EXPECT_FALSE(key.Contains(t)) << key.ToString();
    }
  }
}

TEST_F(HdkIndexerTest, Level1CoversAllNonVfTerms) {
  auto contents = BuildIndex();
  ASSERT_TRUE(contents.ok());
  std::unordered_set<TermId> vf;
  for (TermId t :
       stats_->VeryFrequentTerms(params_.very_frequent_threshold)) {
    vf.insert(t);
  }
  for (TermId t = 0; t < stats_->cf().size(); ++t) {
    if (stats_->CollectionFrequency(t) == 0) continue;
    const KeyEntry* entry = contents->Find(TermKey{t});
    if (vf.count(t) > 0) {
      EXPECT_EQ(entry, nullptr) << t;
    } else {
      ASSERT_NE(entry, nullptr) << t;
      EXPECT_EQ(entry->global_df, stats_->DocumentFrequency(t)) << t;
    }
  }
}

TEST_F(HdkIndexerTest, ReportAccounting) {
  BuildReport report;
  auto contents = BuildIndex(&report);
  ASSERT_TRUE(contents.ok());
  // Stored postings in the report must equal the index contents.
  EXPECT_EQ(report.TotalStoredPostings(), contents->StoredPostings());
  // Generated >= stored (truncation only removes).
  EXPECT_GE(report.TotalGeneratedPostings(), report.TotalStoredPostings());
  for (const auto& level : report.levels) {
    EXPECT_EQ(level.candidates, level.hdks + level.ndks);
    EXPECT_EQ(contents->NumKeys(level.level), level.candidates);
    EXPECT_EQ(contents->NumHdks(level.level), level.hdks);
    EXPECT_EQ(contents->NumNdks(level.level), level.ndks);
    EXPECT_EQ(contents->StoredPostings(level.level),
              level.stored_postings);
  }
}

TEST_F(HdkIndexerTest, HigherDfMaxShrinksKeyVocabulary) {
  // Increasing DFmax moves keys from NDK to HDK and suppresses expansion:
  // fewer multi-term keys overall (HDK indexing approaches single-term
  // indexing as DFmax grows, Section 5).
  auto small_dfmax = BuildIndex();
  ASSERT_TRUE(small_dfmax.ok());

  params_.df_max = 40;
  auto large_dfmax = BuildIndex();
  ASSERT_TRUE(large_dfmax.ok());

  EXPECT_LE(large_dfmax->NumKeys(2) + large_dfmax->NumKeys(3),
            small_dfmax->NumKeys(2) + small_dfmax->NumKeys(3));
}

TEST_F(HdkIndexerTest, DeterministicRebuild) {
  auto a = BuildIndex();
  auto b = BuildIndex();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (const auto& [key, entry] : a->entries()) {
    const KeyEntry* other = b->Find(key);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(entry.global_df, other->global_df);
    EXPECT_EQ(entry.is_hdk, other->is_hdk);
    EXPECT_EQ(entry.postings, other->postings);
  }
}

TEST_F(HdkIndexerTest, RejectsMismatchedStats) {
  corpus::DocumentStore other;
  other.Add({1, 2, 3});
  corpus::CollectionStats other_stats(other);
  CentralizedHdkIndexer indexer(params_);
  EXPECT_FALSE(indexer.Build(store_, other_stats).ok());
}

TEST(TruncationScoreTest, PrefersHigherTfAndShorterDocs) {
  index::Posting high_tf{0, 10, 100};
  index::Posting low_tf{1, 1, 100};
  EXPECT_GT(TruncationScore(high_tf, 100.0), TruncationScore(low_tf, 100.0));

  index::Posting short_doc{2, 3, 50};
  index::Posting long_doc{3, 3, 500};
  EXPECT_GT(TruncationScore(short_doc, 100.0),
            TruncationScore(long_doc, 100.0));
}

}  // namespace
}  // namespace hdk::hdk
