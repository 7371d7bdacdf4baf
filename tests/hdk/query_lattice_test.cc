#include "hdk/query_lattice.h"

#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/flat_map.h"
#include "common/hash.h"
#include "common/rng.h"
#include "hdk/candidate_builder.h"
#include "index/topk.h"

namespace hdk::hdk {
namespace {

TEST(NumQueryKeysTest, MatchesPaperFormula) {
  // |q| <= s_max: nk = 2^q - 1.
  EXPECT_EQ(NumQueryKeys(1, 3), 1u);
  EXPECT_EQ(NumQueryKeys(2, 3), 3u);
  EXPECT_EQ(NumQueryKeys(3, 3), 7u);
  // |q| > s_max: nk = C(q,1) + ... + C(q,s_max).
  EXPECT_EQ(NumQueryKeys(4, 3), 4u + 6u + 4u);
  EXPECT_EQ(NumQueryKeys(8, 3), 8u + 28u + 56u);
  EXPECT_EQ(NumQueryKeys(5, 2), 5u + 10u);
}

TEST(NumQueryKeysTest, PaperAverageExample) {
  // Paper Section 4.2: "the average size of a query is 2.3 in the
  // Wikipedia query log, and nk ~ 3.92" — interpolating between
  // nk(2) = 3 and nk(3) = 7 at 2.3 gives ~4.
  double nk = 0.7 * static_cast<double>(NumQueryKeys(2, 3)) +
              0.3 * static_cast<double>(NumQueryKeys(3, 3));
  EXPECT_NEAR(nk, 4.2, 0.5);
}

TEST(EnumerateQuerySubsetsTest, AllSubsetsUpToSmax) {
  std::vector<TermId> q{1, 2, 3};
  auto subsets = EnumerateQuerySubsets(q, 3);
  ASSERT_EQ(subsets.size(), 7u);
  // Ordered by size.
  EXPECT_EQ(subsets[0].size(), 1u);
  EXPECT_EQ(subsets[3].size(), 2u);
  EXPECT_EQ(subsets[6].size(), 3u);
  EXPECT_EQ(subsets[6], (TermKey{1, 2, 3}));
}

TEST(EnumerateQuerySubsetsTest, SmaxLimitsSubsetSize) {
  std::vector<TermId> q{1, 2, 3, 4};
  auto subsets = EnumerateQuerySubsets(q, 2);
  EXPECT_EQ(subsets.size(), 4u + 6u);
  for (const auto& s : subsets) {
    EXPECT_LE(s.size(), 2u);
  }
}

TEST(EnumerateQuerySubsetsTest, DeduplicatesQueryTerms) {
  std::vector<TermId> q{2, 1, 2, 1};
  auto subsets = EnumerateQuerySubsets(q, 3);
  ASSERT_EQ(subsets.size(), 3u);  // {1}, {2}, {1,2}
}

TEST(EnumerateQuerySubsetsTest, CountMatchesFormula) {
  for (uint32_t qsize = 1; qsize <= 6; ++qsize) {
    std::vector<TermId> q;
    for (TermId t = 0; t < qsize; ++t) q.push_back(t * 10);
    for (uint32_t smax = 1; smax <= 4; ++smax) {
      EXPECT_EQ(EnumerateQuerySubsets(q, smax).size(),
                NumQueryKeys(qsize, smax))
          << "q=" << qsize << " smax=" << smax;
    }
  }
}

// Scripted index for PlanRetrieval: a map from key to classification.
class ScriptedIndex {
 public:
  void AddHdk(TermKey k) { entries_[std::move(k)] = true; }
  void AddNdk(TermKey k) { entries_[std::move(k)] = false; }

  auto AsProbe() {
    return [this](const TermKey& k) -> std::optional<ProbeOutcome> {
      ++probes_;
      auto it = entries_.find(k);
      if (it == entries_.end()) return std::nullopt;
      return ProbeOutcome{it->second};
    };
  }

  uint64_t probes() const { return probes_; }

 private:
  KeyMap<bool> entries_;
  uint64_t probes_ = 0;
};

TEST(PlanRetrievalTest, FetchesMatchingKeys) {
  ScriptedIndex index;
  index.AddNdk(TermKey{1});
  index.AddNdk(TermKey{2});
  index.AddHdk(TermKey{1, 2});
  std::vector<TermId> q{1, 2};
  auto plan = PlanRetrieval(q, 3, index.AsProbe());
  EXPECT_EQ(plan.fetched.size(), 3u);
  EXPECT_EQ(plan.probes, 3u);
  EXPECT_EQ(plan.pruned, 0u);
}

TEST(PlanRetrievalTest, PrunesSupersetsOfMatchedHdks) {
  // {1} is an HDK: {1,2}, {1,3}, {1,2,3} are redundant and never probed.
  ScriptedIndex index;
  index.AddHdk(TermKey{1});
  index.AddNdk(TermKey{2});
  index.AddNdk(TermKey{3});
  index.AddNdk(TermKey{2, 3});
  std::vector<TermId> q{1, 2, 3};
  auto plan = PlanRetrieval(q, 3, index.AsProbe());
  EXPECT_EQ(plan.fetched.size(), 4u);  // {1},{2},{3},{2,3}
  EXPECT_EQ(plan.pruned, 3u);          // {1,2},{1,3},{1,2,3}
  EXPECT_EQ(plan.probes, 4u);
  EXPECT_EQ(index.probes(), 4u);
}

TEST(PlanRetrievalTest, PrunesSupersetsOfAbsentKeys) {
  // Term 9 is unknown: all subsets containing it are skipped after the
  // first miss.
  ScriptedIndex index;
  index.AddNdk(TermKey{1});
  index.AddNdk(TermKey{2});
  index.AddNdk(TermKey{1, 2});
  std::vector<TermId> q{1, 2, 9};
  auto plan = PlanRetrieval(q, 3, index.AsProbe());
  EXPECT_EQ(plan.fetched.size(), 3u);
  // {9} probed (miss); {1,9},{2,9},{1,2,9} pruned.
  EXPECT_EQ(plan.probes, 4u);
  EXPECT_EQ(plan.pruned, 3u);
}

TEST(PlanRetrievalTest, EmptyQueryFetchesNothing) {
  ScriptedIndex index;
  std::vector<TermId> q;
  auto plan = PlanRetrieval(q, 3, index.AsProbe());
  EXPECT_TRUE(plan.fetched.empty());
  EXPECT_EQ(plan.probes, 0u);
}

TEST(RankFetchedKeysTest, MergesAndRanks) {
  index::PostingList pl1({{0, 3, 100}, {1, 1, 100}});
  index::PostingList pl2({{1, 2, 100}, {2, 2, 100}});
  std::vector<FetchedKey> fetched{
      {TermKey{1}, 2, false, &pl1},
      {TermKey{2}, 2, false, &pl2},
  };
  auto results = RankFetchedKeys(fetched, 100, 100.0, 10);
  ASSERT_EQ(results.size(), 3u);
  // Doc 1 matches both keys: should rank first.
  EXPECT_EQ(results[0].doc, 1u);
}

TEST(RankFetchedKeysTest, RarerKeysWeighMore) {
  index::PostingList common({{0, 1, 100}});
  index::PostingList rare({{1, 1, 100}});
  std::vector<FetchedKey> fetched{
      {TermKey{1}, 90, false, &common},  // df 90 of 100 docs
      {TermKey{2}, 2, true, &rare},      // df 2
  };
  auto results = RankFetchedKeys(fetched, 100, 100.0, 10);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].doc, 1u);  // matched the rare key
}

TEST(RankFetchedKeysTest, NullPostingsSkipped) {
  std::vector<FetchedKey> fetched{{TermKey{1}, 5, false, nullptr}};
  EXPECT_TRUE(RankFetchedKeys(fetched, 10, 10.0, 5).empty());
}

TEST(RankFetchedKeysTest, KLimitsOutput) {
  index::PostingList pl({{0, 1, 10}, {1, 2, 10}, {2, 3, 10}});
  std::vector<FetchedKey> fetched{{TermKey{1}, 3, true, &pl}};
  EXPECT_EQ(RankFetchedKeys(fetched, 10, 10.0, 2).size(), 2u);
}

// --- Differential tests against the pre-rewrite implementations ----------

using Probe = std::function<std::optional<ProbeOutcome>(const TermKey&)>;

// The lattice walk PlanRetrieval replaced: every subset from
// EnumerateQuerySubsets, pruned by ContainsAll against the matched HDKs
// and the absent subsets.
RetrievalPlan ReferencePlan(std::span<const TermId> query, uint32_t s_max,
                            const Probe& probe) {
  RetrievalPlan plan;
  std::vector<TermKey> matched_hdks;
  std::vector<TermKey> dead;
  for (const TermKey& subset : EnumerateQuerySubsets(query, s_max)) {
    bool skip = false;
    for (const TermKey& h : matched_hdks) {
      skip = skip || (subset.size() > h.size() && subset.ContainsAll(h));
    }
    for (const TermKey& d : dead) skip = skip || subset.ContainsAll(d);
    if (skip) {
      ++plan.pruned;
      continue;
    }
    ++plan.probes;
    const std::optional<ProbeOutcome> outcome = probe(subset);
    if (!outcome.has_value()) {
      dead.push_back(subset);
      continue;
    }
    plan.fetched.push_back(subset);
    if (outcome->is_hdk) matched_hdks.push_back(subset);
  }
  return plan;
}

// A random probe table: each key is absent, an HDK or an NDK, decided by
// a hash of the key and a table seed. Records the probe sequence.
struct RandomTable {
  uint64_t seed = 0;
  uint64_t absent_pct = 30;
  uint64_t hdk_pct = 20;
  std::vector<TermKey> calls;

  std::optional<ProbeOutcome> operator()(const TermKey& key) {
    calls.push_back(key);
    const uint64_t roll = Mix64(key.Hash64() ^ seed) % 100;
    if (roll < absent_pct) return std::nullopt;
    return ProbeOutcome{roll < absent_pct + hdk_pct};
  }
};

void ExpectSamePlan(std::span<const TermId> query, uint32_t s_max,
                    const RandomTable& table) {
  RandomTable reference_table = table;
  RandomTable walk_table = table;
  const RetrievalPlan expected =
      ReferencePlan(query, s_max, std::ref(reference_table));
  const RetrievalPlan actual = PlanRetrieval(query, s_max, walk_table);
  EXPECT_EQ(walk_table.calls, reference_table.calls);
  EXPECT_EQ(actual.fetched, expected.fetched);
  EXPECT_EQ(actual.probes, expected.probes);
  EXPECT_EQ(actual.pruned, expected.pruned);
}

TEST(PlanRetrievalDifferentialTest, MatchesReferenceWalkOnRandomQueries) {
  Rng rng(2024);
  for (int trial = 0; trial < 400; ++trial) {
    // Terms from a small vocabulary, so queries repeat terms.
    std::vector<TermId> query(rng.NextBounded(13));
    for (TermId& t : query) t = static_cast<TermId>(rng.NextBounded(16));
    RandomTable table;
    table.seed = rng.Next();
    table.absent_pct = rng.NextBounded(60);
    table.hdk_pct = rng.NextBounded(100 - table.absent_pct);
    for (uint32_t s_max = 1; s_max <= 4; ++s_max) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " s_max " +
                   std::to_string(s_max));
      ExpectSamePlan(query, s_max, table);
    }
  }
}

TEST(PlanRetrievalDifferentialTest, MatchesReferenceWalkBeyond64Terms) {
  // 66 distinct terms (plus repeats): subset masks span two words. s_max
  // stops at 3, as C(66, 4) subsets make the reference walk slow under
  // the sanitizers; the random queries cover s_max = 4.
  std::vector<TermId> query;
  for (TermId t = 0; t < 66; ++t) query.push_back(1000 + 7 * t);
  query.push_back(1000);
  query.push_back(1000 + 7 * 65);
  for (uint32_t s_max = 1; s_max <= 3; ++s_max) {
    SCOPED_TRACE("s_max " + std::to_string(s_max));
    RandomTable table;
    table.seed = 77 + s_max;
    table.absent_pct = 40;
    table.hdk_pct = 30;
    ExpectSamePlan(query, s_max, table);
  }
}

// The ranking RankFetchedKeys replaced: a hash-map accumulation of the
// per-posting BM25 score (IDF recomputed per posting, in the formula's
// original form) and a TopK heap.
std::vector<index::ScoredDoc> ReferenceRank(std::span<const FetchedKey> fetched,
                                            uint64_t collection_size,
                                            double avg_doc_length, size_t k) {
  const index::Bm25Scorer scorer(collection_size, avg_doc_length);
  const index::Bm25Params& bp = scorer.params();
  auto score = [&](uint32_t tf, Freq df, uint32_t doc_length) {
    if (tf == 0 || df == 0) return 0.0;
    const double tfd = static_cast<double>(tf);
    const double norm =
        bp.k1 * (1.0 - bp.b +
                 bp.b * static_cast<double>(doc_length) / scorer.avg_doc_len());
    return scorer.Idf(df) * (tfd * (bp.k1 + 1.0)) / (tfd + norm);
  };
  FlatMap<DocId, double, IdHasher> scores;
  for (const FetchedKey& f : fetched) {
    if (f.postings == nullptr) continue;
    for (const index::Posting& p : f.postings->postings()) {
      scores[p.doc] += score(p.tf, f.global_df, p.doc_length);
    }
  }
  index::TopK topk(k);
  for (const auto& [doc, s] : scores) topk.Offer(index::ScoredDoc{doc, s});
  return topk.Take();
}

void ExpectBitIdentical(const std::vector<index::ScoredDoc>& actual,
                        const std::vector<index::ScoredDoc>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].doc, expected[i].doc) << "rank " << i;
    EXPECT_EQ(std::memcmp(&actual[i].score, &expected[i].score,
                          sizeof(double)),
              0)
        << "rank " << i << ": " << actual[i].score << " vs "
        << expected[i].score;
  }
}

// Random fetched keys over overlapping doc ranges. Few distinct (tf,
// length) profiles make score ties common; some docs have huge ids.
struct RandomFetch {
  std::vector<std::unique_ptr<index::PostingList>> lists;
  std::vector<FetchedKey> keys;
};

RandomFetch MakeRandomFetch(Rng& rng, size_t num_keys, size_t max_list,
                            DocId doc_range) {
  RandomFetch out;
  for (size_t i = 0; i < num_keys; ++i) {
    const TermKey key(static_cast<TermId>(i));
    const Freq df = rng.NextBounded(8) == 0 ? 0 : 1 + rng.NextBounded(500);
    if (rng.NextBounded(6) == 0) {
      out.keys.push_back(FetchedKey{key, df, false, nullptr});
      continue;
    }
    std::vector<index::Posting> postings(rng.NextBounded(max_list + 1));
    for (index::Posting& p : postings) {
      p.doc = rng.NextBounded(10) == 0
                  ? static_cast<DocId>(1'000'000 + rng.NextBounded(50'000))
                  : static_cast<DocId>(rng.NextBounded(doc_range));
      p.tf = static_cast<uint32_t>(rng.NextBounded(4));
      p.doc_length = rng.NextBounded(2) == 0 ? 40 : 90;
    }
    out.lists.push_back(
        std::make_unique<index::PostingList>(std::move(postings)));
    out.keys.push_back(
        FetchedKey{key, df, rng.NextBounded(2) == 0, out.lists.back().get()});
  }
  return out;
}

TEST(RankFetchedKeysDifferentialTest, MatchesReferenceBitForBit) {
  Rng rng(99);
  for (int trial = 0; trial < 300; ++trial) {
    const RandomFetch fetch =
        MakeRandomFetch(rng, rng.NextBounded(9), 80, 300);
    const uint64_t n = 100 + rng.NextBounded(5000);
    const double avgdl = 20.0 + static_cast<double>(rng.NextBounded(100));
    size_t union_size = 0;
    {
      FlatSet<DocId, IdHasher> docs;
      for (const FetchedKey& f : fetch.keys) {
        if (f.postings == nullptr) continue;
        for (const index::Posting& p : f.postings->postings()) {
          docs.insert(p.doc);
        }
      }
      union_size = docs.size();
    }
    for (const size_t k : {size_t{0}, size_t{1}, size_t{7}, size_t{20},
                           union_size + 5}) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " k " +
                   std::to_string(k));
      ExpectBitIdentical(RankFetchedKeys(fetch.keys, n, avgdl, k),
                         ReferenceRank(fetch.keys, n, avgdl, k));
    }
  }
}

TEST(RankFetchedKeysDifferentialTest, SmallQueryAfterLargeSeesNoStaleScores) {
  // The per-thread accumulator must come back clean: a large ranking
  // (many docs, high ids) followed by a small one on the same thread.
  Rng rng(5);
  const RandomFetch large = MakeRandomFetch(rng, 12, 2000, 100'000);
  ExpectBitIdentical(RankFetchedKeys(large.keys, 5000, 60.0, 20),
                     ReferenceRank(large.keys, 5000, 60.0, 20));
  index::PostingList small({{3, 1, 40}, {70'000, 2, 90}});
  const std::vector<FetchedKey> small_keys{{TermKey{1}, 4, true, &small}};
  const auto ranked = RankFetchedKeys(small_keys, 5000, 60.0, 20);
  ExpectBitIdentical(ranked, ReferenceRank(small_keys, 5000, 60.0, 20));
  ASSERT_EQ(ranked.size(), 2u);
}

}  // namespace
}  // namespace hdk::hdk
