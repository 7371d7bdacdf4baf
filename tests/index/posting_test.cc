#include "index/posting.h"

#include <gtest/gtest.h>

namespace hdk::index {
namespace {

TEST(PostingListTest, ConstructorSortsAndDeduplicates) {
  PostingList pl({{3, 1, 10}, {1, 2, 20}, {3, 4, 10}, {2, 1, 30}});
  ASSERT_EQ(pl.size(), 3u);
  EXPECT_EQ(pl[0].doc, 1u);
  EXPECT_EQ(pl[1].doc, 2u);
  EXPECT_EQ(pl[2].doc, 3u);
  EXPECT_EQ(pl[2].tf, 5u);  // 1 + 4 accumulated
}

TEST(PostingListTest, UpsertInsertsSorted) {
  PostingList pl;
  pl.Upsert({5, 1, 10});
  pl.Upsert({2, 1, 20});
  pl.Upsert({9, 1, 30});
  ASSERT_EQ(pl.size(), 3u);
  EXPECT_EQ(pl[0].doc, 2u);
  EXPECT_EQ(pl[1].doc, 5u);
  EXPECT_EQ(pl[2].doc, 9u);
}

TEST(PostingListTest, UpsertAccumulatesTf) {
  PostingList pl;
  pl.Upsert({5, 2, 10});
  pl.Upsert({5, 3, 10});
  ASSERT_EQ(pl.size(), 1u);
  EXPECT_EQ(pl[0].tf, 5u);
}

TEST(PostingListTest, ContainsBinarySearches) {
  PostingList pl({{1, 1, 1}, {5, 1, 1}, {9, 1, 1}});
  EXPECT_TRUE(pl.Contains(1));
  EXPECT_TRUE(pl.Contains(5));
  EXPECT_TRUE(pl.Contains(9));
  EXPECT_FALSE(pl.Contains(0));
  EXPECT_FALSE(pl.Contains(4));
  EXPECT_FALSE(pl.Contains(10));
}

TEST(PostingListTest, MergeDisjoint) {
  PostingList a({{1, 1, 5}, {3, 1, 5}});
  PostingList b({{2, 1, 5}, {4, 1, 5}});
  a.Merge(b);
  EXPECT_EQ(a, PostingList({{1, 1, 5}, {2, 1, 5}, {3, 1, 5}, {4, 1, 5}}));
}

TEST(PostingListTest, MergeOverlappingAccumulates) {
  PostingList a({{1, 2, 5}, {3, 1, 5}});
  PostingList b({{1, 3, 5}, {9, 1, 5}});
  a.Merge(b);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0].doc, 1u);
  EXPECT_EQ(a[0].tf, 5u);
}

TEST(PostingListTest, MergeWithEmpty) {
  PostingList a({{1, 1, 5}});
  PostingList empty;
  a.Merge(empty);
  EXPECT_EQ(a.size(), 1u);
  empty.Merge(a);
  EXPECT_EQ(empty.size(), 1u);
}

TEST(PostingListTest, TruncateKeepsHighestScores) {
  PostingList pl({{1, 1, 10}, {2, 5, 10}, {3, 3, 10}, {4, 9, 10}});
  pl.TruncateTopBy(2, [](const Posting& p) {
    return static_cast<double>(p.tf);
  });
  ASSERT_EQ(pl.size(), 2u);
  // Kept docs 4 (tf 9) and 2 (tf 5), restored to doc order.
  EXPECT_EQ(pl[0].doc, 2u);
  EXPECT_EQ(pl[1].doc, 4u);
}

TEST(PostingListTest, TruncateNoOpWhenSmall) {
  PostingList pl({{1, 1, 10}, {2, 2, 10}});
  pl.TruncateTopBy(5, [](const Posting& p) {
    return static_cast<double>(p.tf);
  });
  EXPECT_EQ(pl.size(), 2u);
}

TEST(PostingListTest, TruncateTieBreaksByLowerDoc) {
  PostingList pl({{10, 1, 5}, {20, 1, 5}, {30, 1, 5}});
  pl.TruncateTopBy(2, [](const Posting&) { return 1.0; });
  ASSERT_EQ(pl.size(), 2u);
  EXPECT_EQ(pl[0].doc, 10u);
  EXPECT_EQ(pl[1].doc, 20u);
}

TEST(PostingListTest, EqualityIsStructural) {
  PostingList a({{1, 2, 3}});
  PostingList b({{1, 2, 3}});
  PostingList c({{1, 2, 4}});
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(PostingListTest, MergeFromMatchesMerge) {
  PostingList reference({{1, 1, 5}, {3, 2, 5}});
  PostingList other({{2, 1, 5}, {3, 4, 5}});
  reference.Merge(other);

  PostingList moved_into({{1, 1, 5}, {3, 2, 5}});
  moved_into.MergeFrom(PostingList({{2, 1, 5}, {3, 4, 5}}));
  EXPECT_EQ(moved_into, reference);
}

TEST(PostingListTest, MergeFromStealsWhenEmpty) {
  PostingList target;
  target.MergeFrom(PostingList({{7, 1, 9}, {2, 3, 9}}));
  ASSERT_EQ(target.size(), 2u);
  EXPECT_EQ(target[0].doc, 2u);
  EXPECT_EQ(target[1].doc, 7u);
}

TEST(PostingListTest, MergeFromEmptyIsNoOp) {
  PostingList target({{1, 1, 5}});
  target.MergeFrom(PostingList());
  ASSERT_EQ(target.size(), 1u);
  EXPECT_EQ(target[0].doc, 1u);
}

}  // namespace
}  // namespace hdk::index
