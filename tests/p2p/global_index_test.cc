#include "p2p/global_index.h"

#include <filesystem>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "../engine/churn_golden.h"
#include "dht/pgrid.h"
#include "engine/engine_snapshot.h"
#include "engine/hdk_engine.h"
#include "engine/membership.h"
#include "engine/partition.h"

namespace hdk::p2p {
namespace {

class GlobalIndexTest : public ::testing::Test {
 protected:
  GlobalIndexTest() : overlay_(4, 42), index_(&overlay_, &traffic_) {}

  HdkParams Params(Freq df_max) {
    HdkParams p;
    p.df_max = df_max;
    return p;
  }

  static std::vector<index::Posting> Postings(const index::PostingList& l) {
    return {l.postings().begin(), l.postings().end()};
  }

  /// Peer `peer`'s contribution to `key`, where the peer owns documents
  /// [100 r, 100 r + 100) for r = `range_of` (default: `peer` itself).
  std::vector<index::Posting> ContributionOf(PeerId peer,
                                            const hdk::TermKey& key,
                                            PeerId range_of = kInvalidPeer) {
    const DocId first = 100 * (range_of == kInvalidPeer ? peer : range_of);
    const auto got =
        index_.ContributionOf(peer, first, first + 100, key, key.Hash64());
    return {got.begin(), got.end()};
  }

  dht::PGridOverlay overlay_;
  net::TrafficRecorder traffic_;
  DistributedGlobalIndex index_;
};

TEST_F(GlobalIndexTest, AggregatesDfAcrossPeers) {
  hdk::TermKey key{1, 2};
  index_.InsertPostings(0, key,
                        index::PostingList({{0, 1, 10}, {1, 1, 10}}),
                        Params(10));
  index_.InsertPostings(1, key,
                        index::PostingList({{5, 1, 10}, {6, 1, 10},
                                            {7, 1, 10}}),
                        Params(10));
  auto outcome = index_.EndLevel(Params(10), 10.0);
  EXPECT_EQ(outcome.hdks, 1u);
  EXPECT_EQ(outcome.ndks, 0u);

  const hdk::KeyEntry* entry = index_.Peek(key);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->global_df, 5u);
  EXPECT_TRUE(entry->is_hdk);
  EXPECT_EQ(entry->postings.size(), 5u);
}

TEST_F(GlobalIndexTest, ClassifiesNdkAndTruncates) {
  hdk::TermKey key{7};
  std::vector<index::Posting> postings;
  for (DocId d = 0; d < 20; ++d) {
    postings.push_back({d, d + 1, 100});  // higher doc => higher tf
  }
  // Sender-side truncation already limits the transmitted payload to the
  // local top-DFmax.
  const uint64_t payload = index_.InsertPostings(
      0, key, index::PostingList(postings), Params(5));
  EXPECT_EQ(payload, 5u);
  auto outcome = index_.EndLevel(Params(5), 100.0);
  EXPECT_EQ(outcome.ndks, 1u);

  const hdk::KeyEntry* entry = index_.Peek(key);
  ASSERT_NE(entry, nullptr);
  EXPECT_FALSE(entry->is_hdk);
  EXPECT_EQ(entry->global_df, 20u);
  ASSERT_EQ(entry->postings.size(), 5u);
  // The highest-tf postings survive.
  EXPECT_EQ(entry->postings[0].doc, 15u);
  EXPECT_EQ(entry->postings[4].doc, 19u);
}

TEST_F(GlobalIndexTest, NotifiesEveryContributorOfAnNdk) {
  hdk::TermKey key{3};
  for (PeerId p = 0; p < 3; ++p) {
    std::vector<index::Posting> postings;
    for (DocId d = p * 10; d < p * 10 + 4; ++d) {
      postings.push_back({d, 1, 10});
    }
    index_.InsertPostings(p, key, index::PostingList(postings), Params(10));
  }
  auto outcome = index_.EndLevel(Params(10), 10.0);  // df 12 > 10
  ASSERT_EQ(outcome.notifications.size(), 1u);
  EXPECT_EQ(outcome.notifications[0].first, key);
  EXPECT_EQ(outcome.notifications[0].second,
            (std::vector<PeerId>{0, 1, 2}));
  EXPECT_EQ(outcome.notification_messages, 3u);
  EXPECT_EQ(traffic_.ByKind(net::MessageKind::kNdkNotification).messages,
            3u);
}

TEST_F(GlobalIndexTest, LateContributionCrossingDfMaxNotifiesEveryone) {
  // Incremental growth: a key published as HDK crosses DFmax when a new
  // peer contributes — ALL contributors (old and new) must be notified so
  // the old peers expand it too.
  hdk::TermKey key{3};
  std::vector<index::Posting> first;
  for (DocId d = 0; d < 6; ++d) first.push_back({d, 1, 10});
  index_.InsertPostings(0, key, index::PostingList(first), Params(10));
  auto outcome = index_.EndLevel(Params(10), 10.0);
  EXPECT_EQ(outcome.hdks, 1u);
  EXPECT_EQ(outcome.reclassified, 0u);
  ASSERT_TRUE(index_.Peek(key)->is_hdk);

  std::vector<index::Posting> second;
  for (DocId d = 20; d < 26; ++d) second.push_back({d, 1, 10});
  index_.InsertPostings(1, key, index::PostingList(second), Params(10));
  outcome = index_.EndLevel(Params(10), 10.0);  // df 12 > 10 now
  EXPECT_EQ(outcome.ndks, 1u);
  EXPECT_EQ(outcome.reclassified, 1u);
  ASSERT_EQ(outcome.notifications.size(), 1u);
  EXPECT_EQ(outcome.notifications[0].second,
            (std::vector<PeerId>{0, 1}));
  EXPECT_FALSE(index_.Peek(key)->is_hdk);
  EXPECT_EQ(index_.Peek(key)->global_df, 12u);
}

TEST_F(GlobalIndexTest, LateContributionToKnownNdkNotifiesOnlyNewcomer) {
  hdk::TermKey key{5};
  std::vector<index::Posting> first;
  for (DocId d = 0; d < 12; ++d) first.push_back({d, 1, 10});
  index_.InsertPostings(0, key, index::PostingList(first), Params(10));
  auto outcome = index_.EndLevel(Params(10), 10.0);  // NDK immediately
  EXPECT_EQ(outcome.ndks, 1u);

  std::vector<index::Posting> second;
  for (DocId d = 20; d < 23; ++d) second.push_back({d, 1, 10});
  index_.InsertPostings(1, key, index::PostingList(second), Params(10));
  outcome = index_.EndLevel(Params(10), 10.0);
  EXPECT_EQ(outcome.reclassified, 0u);
  ASSERT_EQ(outcome.notifications.size(), 1u);
  // Peer 0 already expanded this key; only the newcomer learns about it.
  EXPECT_EQ(outcome.notifications[0].second, (std::vector<PeerId>{1}));
}

TEST_F(GlobalIndexTest, SubmittedRunsStayPendingUntilEndLevelInAnyOrder) {
  // Two tasks' runs for one key, the higher peer's submitted first: the
  // message is billed at append time, the runs count as pending from
  // Submit until the barrier, and the barrier merges the contributors in
  // ascending peer order whatever order they arrived in.
  const hdk::TermKey key{4};
  std::vector<index::Posting> low_postings, high_postings;
  for (DocId d = 0; d < 6; ++d) low_postings.push_back({d, 1, 10});
  for (DocId d = 10; d < 16; ++d) high_postings.push_back({d, 1, 10});
  DistributedGlobalIndex::ContributionRuns low, high;
  index_.InsertPostings(high, 2, key, key.Hash64(),
                        index::PostingList(high_postings), Params(10));
  index_.InsertPostings(low, 0, key, key.Hash64(),
                        index::PostingList(low_postings), Params(10));
  EXPECT_EQ(traffic_.ByKind(net::MessageKind::kInsertPostings).messages, 2u);
  EXPECT_FALSE(index_.HasPendingContributions());

  index_.Submit(std::move(high));
  EXPECT_TRUE(index_.HasPendingContributions());
  index_.Submit(std::move(low));
  const LevelOutcome outcome = index_.EndLevel(Params(10), 10.0);
  EXPECT_FALSE(index_.HasPendingContributions());

  ASSERT_EQ(outcome.notifications.size(), 1u);  // df 12 > 10
  EXPECT_EQ(outcome.notifications[0].second, (std::vector<PeerId>{0, 2}));
  const auto& keys = index_.ShardKeys(0);
  const auto it = keys.find(key);
  ASSERT_NE(it, keys.end());
  const auto& contributors =
      index_.ShardLedger(0)[it - keys.begin()].contributors;
  ASSERT_EQ(contributors.size(), 2u);
  EXPECT_EQ(contributors[0].peer, 0u);
  EXPECT_EQ(contributors[0].local_df, 6u);
  EXPECT_EQ(contributors[1].peer, 2u);
  EXPECT_EQ(contributors[1].local_df, 6u);
}

TEST_F(GlobalIndexTest, NotificationsCanBeDisabled) {
  hdk::TermKey key{3};
  std::vector<index::Posting> postings;
  for (DocId d = 0; d < 12; ++d) postings.push_back({d, 1, 10});
  index_.InsertPostings(0, key, index::PostingList(postings), Params(10));
  auto outcome = index_.EndLevel(Params(10), 10.0,
                                 /*notify_contributors=*/false);
  EXPECT_EQ(outcome.ndks, 1u);
  EXPECT_TRUE(outcome.notifications.empty());
  EXPECT_EQ(traffic_.ByKind(net::MessageKind::kNdkNotification).messages,
            0u);
}

TEST_F(GlobalIndexTest, InsertRecordsTraffic) {
  hdk::TermKey key{9};
  index_.InsertPostings(2, key,
                        index::PostingList({{0, 1, 5}, {1, 1, 5},
                                            {2, 1, 5}}),
                        Params(10));
  const auto& insert =
      traffic_.ByKind(net::MessageKind::kInsertPostings);
  EXPECT_EQ(insert.messages, 1u);
  EXPECT_EQ(insert.postings, 3u);
}

TEST_F(GlobalIndexTest, FetchRecordsProbeAndResponse) {
  hdk::TermKey key{4};
  index_.InsertPostings(0, key,
                        index::PostingList({{0, 1, 5}, {1, 1, 5}}),
                        Params(10));
  index_.EndLevel(Params(10), 5.0);

  const hdk::KeyEntry* entry = index_.FetchFrom(3, key);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(traffic_.ByKind(net::MessageKind::kKeyProbe).messages, 1u);
  const auto& resp =
      traffic_.ByKind(net::MessageKind::kPostingsResponse);
  EXPECT_EQ(resp.messages, 1u);
  EXPECT_EQ(resp.postings, 2u);
}

TEST_F(GlobalIndexTest, FetchMissRecordsEmptyResponse) {
  const hdk::KeyEntry* entry = index_.FetchFrom(0, hdk::TermKey{99});
  EXPECT_EQ(entry, nullptr);
  EXPECT_EQ(traffic_.ByKind(net::MessageKind::kPostingsResponse).postings,
            0u);
  EXPECT_EQ(traffic_.ByKind(net::MessageKind::kPostingsResponse).messages,
            1u);
}

TEST_F(GlobalIndexTest, KeysArePlacedByHashOnCorrectFragments) {
  for (TermId t = 0; t < 40; ++t) {
    hdk::TermKey key{t};
    index_.InsertPostings(0, key, index::PostingList({{0, 1, 5}}),
                          Params(10));
  }
  index_.EndLevel(Params(10), 5.0);
  EXPECT_EQ(index_.TotalKeys(), 40u);
  uint64_t sum = 0;
  for (PeerId p = 0; p < 4; ++p) {
    sum += index_.KeysAt(p);
  }
  EXPECT_EQ(sum, 40u);
  // Placement must match ResponsiblePeer.
  for (TermId t = 0; t < 40; ++t) {
    hdk::TermKey key{t};
    EXPECT_NE(index_.Peek(key), nullptr);
  }
}

TEST_F(GlobalIndexTest, OverlayGrowthMigratesResponsibility) {
  for (TermId t = 0; t < 40; ++t) {
    index_.InsertPostings(0, hdk::TermKey{t},
                          index::PostingList({{0, 1, 5}}), Params(10));
  }
  index_.EndLevel(Params(10), 5.0);

  ASSERT_TRUE(overlay_.AddPeer().ok());
  ASSERT_TRUE(overlay_.AddPeer().ok());
  const uint64_t migrated = index_.OnOverlayGrown();
  EXPECT_GT(migrated, 0u);
  EXPECT_EQ(traffic_.ByKind(net::MessageKind::kMaintenance).messages,
            migrated);

  // Every key is findable at its NEW responsible peer.
  EXPECT_EQ(index_.TotalKeys(), 40u);
  for (TermId t = 0; t < 40; ++t) {
    EXPECT_NE(index_.Peek(hdk::TermKey{t}), nullptr);
  }
}

TEST_F(GlobalIndexTest, EraseKeysContainingPurgesEverywhere) {
  index_.InsertPostings(0, hdk::TermKey{1}, index::PostingList({{0, 1, 5}}),
                        Params(10));
  index_.InsertPostings(0, hdk::TermKey{2}, index::PostingList({{0, 1, 5}}),
                        Params(10));
  index_.EndLevel(Params(10), 5.0);
  index_.InsertPostings(1, hdk::TermKey{1, 2},
                        index::PostingList({{5, 1, 5}}), Params(10));
  index_.EndLevel(Params(10), 5.0);

  EXPECT_EQ(index_.EraseKeysContaining(TermIdSet{1}), 2u);  // {1}, {1,2}
  EXPECT_EQ(index_.Peek(hdk::TermKey{1}), nullptr);
  EXPECT_EQ(index_.Peek(hdk::TermKey{1, 2}), nullptr);
  EXPECT_NE(index_.Peek(hdk::TermKey{2}), nullptr);
  EXPECT_EQ(index_.TotalKeys(), 1u);
}

TEST_F(GlobalIndexTest, StoredPostingsPerPeerSumsToTotal) {
  for (TermId t = 0; t < 20; ++t) {
    index_.InsertPostings(
        0, hdk::TermKey{t},
        index::PostingList({{0, 1, 5}, {1, 1, 5}}), Params(10));
  }
  index_.EndLevel(Params(10), 5.0);
  uint64_t sum = 0;
  for (PeerId p = 0; p < 4; ++p) {
    sum += index_.StoredPostingsAt(p);
  }
  EXPECT_EQ(sum, index_.TotalStoredPostings());
  EXPECT_EQ(sum, 40u);
}

TEST_F(GlobalIndexTest, ExportContainsEverything) {
  index_.InsertPostings(0, hdk::TermKey{1},
                        index::PostingList({{0, 1, 5}}), Params(10));
  index_.InsertPostings(1, hdk::TermKey{2, 3},
                        index::PostingList({{5, 1, 5}}), Params(10));
  index_.EndLevel(Params(10), 5.0);
  auto contents = index_.ExportContents();
  EXPECT_EQ(contents.size(), 2u);
  EXPECT_NE(contents.Find(hdk::TermKey{1}), nullptr);
  EXPECT_NE(contents.Find(hdk::TermKey{2, 3}), nullptr);
}

TEST_F(GlobalIndexTest, ContributionOfDerivesWholeAndKeepsTruncated) {
  // Peer p owns documents [100p, 100p + 100). Peers 1 and 3 send their
  // lists whole; peer 2's local df 12 exceeds DFmax 10, so it sends its
  // top 10 and the table keeps its full list.
  const hdk::TermKey key{4, 9};
  const index::PostingList from1({{101, 2, 5}, {103, 1, 5}});
  const index::PostingList from3({{307, 1, 5}});
  std::vector<index::Posting> twelve;
  for (DocId d = 200; d < 212; ++d) twelve.push_back({d, d - 199, 5});
  const index::PostingList from2(twelve);
  index_.InsertPostings(3, key, from3, Params(10));
  index_.InsertPostings(1, key, from1, Params(10));
  index_.InsertPostings(2, key, from2, Params(10));
  // Still in a run: nothing is in the table before the barrier.
  EXPECT_TRUE(ContributionOf(1, key).empty());
  EXPECT_TRUE(ContributionOf(3, key).empty());
  index_.EndLevel(Params(10), 5.0);

  const hdk::KeyEntry* entry = index_.Peek(key);
  ASSERT_NE(entry, nullptr);
  EXPECT_FALSE(entry->is_hdk);
  EXPECT_EQ(entry->global_df, 15u);
  EXPECT_EQ(ContributionOf(1, key), Postings(from1));
  EXPECT_EQ(ContributionOf(2, key), Postings(from2));
  EXPECT_EQ(ContributionOf(3, key), Postings(from3));
  // A peer that did not contribute, and a key nobody contributed.
  EXPECT_TRUE(ContributionOf(0, key).empty());
  const hdk::TermKey absent{4, 10};
  EXPECT_TRUE(ContributionOf(1, absent).empty());
}

TEST_F(GlobalIndexTest, ContributionOfFollowsDepartureRenumbering) {
  const hdk::TermKey key{6};
  const index::PostingList from0({{0, 1, 5}});
  const index::PostingList from1({{104, 1, 5}});
  const index::PostingList from3({{309, 1, 5}, {311, 3, 5}});
  index_.InsertPostings(0, key, from0, Params(10));
  index_.InsertPostings(1, key, from1, Params(10));
  index_.InsertPostings(3, key, from3, Params(10));
  index_.EndLevel(Params(10), 5.0);

  // Peer 1 leaves: the overlay shrinks first, then the index drops its
  // contribution, its documents and renumbers peer 3 down to 2.
  ASSERT_TRUE(overlay_.RemovePeer(1).ok());
  DepartureStats stats;
  index_.BeginDeparture(1, 100, 200, &stats);
  EXPECT_EQ(stats.removed_contributions, 1u);
  EXPECT_EQ(stats.removed_postings, 1u);
  EXPECT_EQ(ContributionOf(2, key, /*range_of=*/3), Postings(from3));
  EXPECT_EQ(ContributionOf(0, key), Postings(from0));
  EXPECT_TRUE(ContributionOf(1, key, /*range_of=*/2).empty());
  EXPECT_TRUE(ContributionOf(3, key).empty());
}

TEST_F(GlobalIndexTest, RetruncateEqualsABuildUnderTheNewAvgdl) {
  // Peer 0's local df 12 exceeds DFmax 10, so it sends a top 10 and the
  // table keeps its full list; peer 1 sends its list whole. A short
  // average document length favours peer 0's short documents, a long one
  // its high-tf long documents, so the kept contribution's truncation and
  // the published top both change with avgdl.
  const hdk::TermKey key{2, 5};
  std::vector<index::Posting> mixed;
  for (DocId d = 0; d < 6; ++d) mixed.push_back({d, 5, 1000});
  for (DocId d = 6; d < 12; ++d) mixed.push_back({d, 2, 10});
  const index::PostingList from0(mixed);
  const index::PostingList from1({{100, 3, 50}, {101, 1, 50}, {102, 4, 50}});

  index_.InsertPostings(0, key, from0, Params(10));
  index_.InsertPostings(1, key, from1, Params(10));
  index_.EndLevel(Params(10), 5.0);
  const index::PostingList short_avgdl = index_.Peek(key)->postings;
  index_.Retruncate(Params(10), 5000.0);

  net::TrafficRecorder traffic;
  DistributedGlobalIndex fresh(&overlay_, &traffic);
  fresh.InsertPostings(0, key, from0, Params(10));
  fresh.InsertPostings(1, key, from1, Params(10));
  fresh.EndLevel(Params(10), 5000.0);

  const hdk::KeyEntry* got = index_.Peek(key);
  const hdk::KeyEntry* want = fresh.Peek(key);
  ASSERT_NE(got, nullptr);
  ASSERT_NE(want, nullptr);
  EXPECT_FALSE(got->is_hdk);
  EXPECT_EQ(got->global_df, 15u);
  EXPECT_EQ(got->postings, want->postings);
  EXPECT_FALSE(got->postings == short_avgdl);
  EXPECT_EQ(ContributionOf(0, key), Postings(from0));
}

TEST(ShardedGlobalIndexTest, DefaultShardCountHeuristic) {
  // No pool (or a single-thread pool) = the serial path: one shard.
  EXPECT_EQ(DistributedGlobalIndex::DefaultShardCount(nullptr), 1u);
  ThreadPool serial(1);
  EXPECT_EQ(DistributedGlobalIndex::DefaultShardCount(&serial), 1u);
  // Workers get a pow2 >= 4x oversubscription, capped at 64.
  ThreadPool two(2);
  EXPECT_EQ(DistributedGlobalIndex::DefaultShardCount(&two), 8u);
  ThreadPool three(3);
  EXPECT_EQ(DistributedGlobalIndex::DefaultShardCount(&three), 16u);
  ThreadPool many(32);
  EXPECT_EQ(DistributedGlobalIndex::DefaultShardCount(&many), 64u);
}

/// Feeds the same mixed HDK/NDK workload into two indexes.
void FeedWorkload(DistributedGlobalIndex& index, const HdkParams& params) {
  for (TermId t = 0; t < 30; ++t) {
    for (PeerId p = 0; p < 3; ++p) {
      std::vector<index::Posting> postings;
      for (DocId d = p * 10; d < p * 10 + (t % 3) + 2; ++d) {
        postings.push_back({d, 1, 10});
      }
      index.InsertPostings(p, hdk::TermKey{t},
                           index::PostingList(postings), params);
    }
  }
}

TEST(ShardedGlobalIndexTest, ShardCountDoesNotAffectObservableState) {
  // The same workload through 1 shard, 7 shards (inline) and 16 shards
  // driven by a pool must yield identical published entries, identical
  // (ascending-key) notifications and identical traffic.
  HdkParams params;
  params.df_max = 8;  // global df in {6, 9, 12} -> HDK/NDK mix, varying
  params.s_max = 3;   // truncation choices
  dht::PGridOverlay overlay(4, 42);

  net::TrafficRecorder traffic_one;
  DistributedGlobalIndex one(&overlay, &traffic_one, nullptr,
                             /*num_shards=*/1);
  FeedWorkload(one, params);
  const LevelOutcome base = one.EndLevel(params, 10.0);

  ThreadPool pool(4);
  std::vector<std::unique_ptr<DistributedGlobalIndex>> others;
  std::vector<std::unique_ptr<net::TrafficRecorder>> recorders;
  recorders.push_back(std::make_unique<net::TrafficRecorder>());
  others.push_back(std::make_unique<DistributedGlobalIndex>(
      &overlay, recorders.back().get(), nullptr, /*num_shards=*/7));
  recorders.push_back(std::make_unique<net::TrafficRecorder>());
  others.push_back(std::make_unique<DistributedGlobalIndex>(
      &overlay, recorders.back().get(), &pool, /*num_shards=*/0));
  EXPECT_EQ(others.back()->num_shards(), 16u);

  for (size_t i = 0; i < others.size(); ++i) {
    DistributedGlobalIndex& other = *others[i];
    FeedWorkload(other, params);
    const LevelOutcome outcome = other.EndLevel(params, 10.0);
    EXPECT_EQ(outcome.hdks, base.hdks);
    EXPECT_EQ(outcome.ndks, base.ndks);
    EXPECT_EQ(outcome.notification_messages, base.notification_messages);
    EXPECT_EQ(outcome.reclassified, base.reclassified);
    // The reduced notification list is ascending-key deterministic.
    ASSERT_EQ(outcome.notifications.size(), base.notifications.size());
    for (size_t n = 0; n < base.notifications.size(); ++n) {
      EXPECT_EQ(outcome.notifications[n].first, base.notifications[n].first);
      EXPECT_EQ(outcome.notifications[n].second,
                base.notifications[n].second);
    }
    for (TermId t = 0; t < 30; ++t) {
      const hdk::KeyEntry* a = one.Peek(hdk::TermKey{t});
      const hdk::KeyEntry* b = other.Peek(hdk::TermKey{t});
      ASSERT_NE(a, nullptr);
      ASSERT_NE(b, nullptr);
      EXPECT_EQ(a->global_df, b->global_df);
      EXPECT_EQ(a->is_hdk, b->is_hdk);
      EXPECT_EQ(a->postings, b->postings);
    }
    EXPECT_EQ(recorders[i]->total(), traffic_one.total());
    EXPECT_EQ(other.TotalKeys(), one.TotalKeys());
    EXPECT_EQ(other.TotalStoredPostings(), one.TotalStoredPostings());
  }
}

TEST(ShardedGlobalIndexTest, NotificationsAscendingByKeyAcrossShards) {
  HdkParams params;
  params.df_max = 3;
  dht::PGridOverlay overlay(4, 42);
  net::TrafficRecorder traffic;
  DistributedGlobalIndex index(&overlay, &traffic, nullptr,
                               /*num_shards=*/5);
  FeedWorkload(index, params);
  const LevelOutcome outcome = index.EndLevel(params, 10.0);
  ASSERT_GT(outcome.notifications.size(), 1u);
  for (size_t i = 1; i < outcome.notifications.size(); ++i) {
    EXPECT_TRUE(outcome.notifications[i - 1].first <
                outcome.notifications[i].first);
  }
}

TEST(ShardedGlobalIndexTest, OverlayGrowthMigratesWithinShards) {
  // Re-placement after joins must keep every key findable with a
  // many-shard index too (handovers are shard-local by construction).
  HdkParams params;
  params.df_max = 10;
  dht::PGridOverlay overlay(4, 42);
  net::TrafficRecorder traffic;
  DistributedGlobalIndex index(&overlay, &traffic, nullptr,
                               /*num_shards=*/7);
  for (TermId t = 0; t < 40; ++t) {
    index.InsertPostings(0, hdk::TermKey{t},
                         index::PostingList({{0, 1, 5}}), params);
  }
  index.EndLevel(params, 5.0);

  ASSERT_TRUE(overlay.AddPeer().ok());
  ASSERT_TRUE(overlay.AddPeer().ok());
  const uint64_t migrated = index.OnOverlayGrown();
  EXPECT_GT(migrated, 0u);
  EXPECT_EQ(traffic.ByKind(net::MessageKind::kMaintenance).messages,
            migrated);
  EXPECT_EQ(index.TotalKeys(), 40u);
  for (TermId t = 0; t < 40; ++t) {
    EXPECT_NE(index.Peek(hdk::TermKey{t}), nullptr);
  }
}

// -- differential check: every contribution against the peer's own scan --

/// (key, local list) of one peer, in key order.
using LocalLists = std::map<hdk::TermKey, std::vector<index::Posting>>;

/// Each peer's contributions as the key table derives them.
std::vector<LocalLists> TableContributions(
    const engine::HdkSearchEngine& engine) {
  const DistributedGlobalIndex& global = engine.global_index();
  const auto peers = engine.protocol().peers();
  std::vector<LocalLists> out(peers.size());
  for (size_t shard = 0; shard < global.num_shards(); ++shard) {
    const auto& keys = global.ShardKeys(shard);
    for (size_t pos = 0; pos < keys.size(); ++pos) {
      const hdk::TermKey& key = keys.entry(pos).first;
      for (const auto& c : global.ShardLedger(shard)[pos].contributors) {
        const Peer& peer = peers[c.peer];
        const auto list = global.ContributionOf(
            c.peer, peer.first_doc(), peer.last_doc(), key, keys.hash_at(pos));
        EXPECT_EQ(list.size(), c.local_df);
        out[c.peer].emplace(key,
                            std::vector<index::Posting>(list.begin(),
                                                        list.end()));
      }
    }
  }
  return out;
}

/// Each peer's local lists computed from its documents: its candidates at
/// every level under its current knowledge — exactly the keys a
/// from-scratch build has it contribute.
std::vector<LocalLists> ScannedLocalLists(
    const engine::HdkSearchEngine& engine,
    const corpus::DocumentStore& store, uint32_t s_max) {
  std::vector<LocalLists> out;
  for (const Peer& peer : engine.protocol().peers()) {
    LocalLists& lists = out.emplace_back();
    for (uint32_t s = 1; s <= s_max; ++s) {
      const hdk::KeyMap<index::PostingList> candidates =
          s == 1 ? peer.BuildLevel1(store, engine.protocol().very_frequent())
                 : peer.BuildLevel(s, store);
      for (const auto& [key, list] : candidates) {
        lists.emplace(key, std::vector<index::Posting>(
                               list.postings().begin(), list.postings().end()));
      }
    }
  }
  return out;
}

void ExpectContributionsMatchScans(const engine::HdkSearchEngine& engine,
                                   const corpus::DocumentStore& store,
                                   uint32_t s_max, const char* stage) {
  SCOPED_TRACE(stage);
  const std::vector<LocalLists> got = TableContributions(engine);
  const std::vector<LocalLists> want = ScannedLocalLists(engine, store, s_max);
  ASSERT_EQ(got.size(), want.size());
  for (size_t p = 0; p < got.size(); ++p) {
    SCOPED_TRACE("peer " + std::to_string(p));
    EXPECT_FALSE(got[p].empty());
    EXPECT_TRUE(got[p] == want[p]);
  }
}

class ContributionDifferentialTest : public ::testing::TestWithParam<size_t> {
};

// A build, a join that shifts avgdl (and re-truncates), a departure with
// retractions, and a departure on a snapshot-loaded engine, whose merged
// lists still borrow the mapped file (the copy-on-write path): after
// each, ContributionOf equals every peer's own scan for every key.
TEST_P(ContributionDifferentialTest, EveryContributionEqualsThePeersScan) {
  engine::EngineConfig config;
  config.hdk.df_max = 8;
  config.hdk.very_frequent_threshold = 350;
  config.hdk.window = 8;
  config.hdk.s_max = 3;
  config.num_threads = GetParam();
  const uint32_t s_max = config.hdk.s_max;

  corpus::SyntheticCorpus corpus = engine::ChurnCorpus();
  corpus::DocumentStore store;
  corpus.FillStore(300, &store);
  auto built =
      engine::HdkSearchEngine::Build(config, store, engine::SplitEvenly(300, 5));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  engine::HdkSearchEngine& engine = **built;
  ExpectContributionsMatchScans(engine, store, s_max, "build");

  corpus.FillStore(420, &store);
  ASSERT_TRUE(
      engine.ApplyMembership(store, engine::JoinWave(300, 2, 60)).ok());
  ExpectContributionsMatchScans(engine, store, s_max, "join");

  ASSERT_TRUE(
      engine.ApplyMembership(store, {engine::MembershipEvent::Leave(5)}).ok());
  EXPECT_GT(engine.last_departure().retracted_keys, 0u);
  ExpectContributionsMatchScans(engine, store, s_max, "departure");

  const std::string path =
      (std::filesystem::path(::testing::TempDir()) /
       ("contribution_differential_" + std::to_string(GetParam()) + ".hdks"))
          .string();
  ASSERT_TRUE(engine.SaveSnapshot(path).ok());
  auto loaded = engine::LoadEngineSnapshot(config, store, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectContributionsMatchScans(**loaded, store, s_max, "load");
  ASSERT_TRUE((*loaded)
                  ->ApplyMembership(store, {engine::MembershipEvent::Leave(1)})
                  .ok());
  ExpectContributionsMatchScans(**loaded, store, s_max,
                                "departure after load");
  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(Threads, ContributionDifferentialTest,
                         ::testing::Values<size_t>(1, 4),
                         [](const auto& info) {
                           return "threads_" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace hdk::p2p
