#include "net/traffic.h"

#include <array>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"

namespace hdk::net {
namespace {

TEST(TrafficRecorderTest, RecordsTotals) {
  TrafficRecorder rec;
  rec.Record(0, 1, MessageKind::kInsertPostings, 100, 3);
  rec.Record(1, 0, MessageKind::kPostingsResponse, 50, 1);
  EXPECT_EQ(rec.total().messages, 2u);
  EXPECT_EQ(rec.total().postings, 150u);
  EXPECT_EQ(rec.total().hops, 4u);
}

TEST(TrafficRecorderTest, ByteModel) {
  CostModel model;
  model.header_bytes = 10;
  model.posting_bytes = 4;
  TrafficRecorder rec(model);
  rec.Record(0, 1, MessageKind::kKeyProbe, 5, 2);
  EXPECT_EQ(rec.total().bytes, 10u + 5u * 4u);
}

TEST(TrafficRecorderTest, PerHopOverhead) {
  CostModel model;
  model.header_bytes = 0;
  model.posting_bytes = 0;
  model.per_hop_overhead = 7;
  TrafficRecorder rec(model);
  rec.Record(0, 1, MessageKind::kKeyProbe, 0, 3);
  EXPECT_EQ(rec.total().bytes, 21u);
}

TEST(TrafficRecorderTest, PerKindBreakdown) {
  TrafficRecorder rec;
  rec.Record(0, 1, MessageKind::kInsertPostings, 10, 1);
  rec.Record(0, 1, MessageKind::kInsertPostings, 20, 1);
  rec.Record(0, 1, MessageKind::kNdkNotification, 0, 1);
  EXPECT_EQ(rec.ByKind(MessageKind::kInsertPostings).messages, 2u);
  EXPECT_EQ(rec.ByKind(MessageKind::kInsertPostings).postings, 30u);
  EXPECT_EQ(rec.ByKind(MessageKind::kNdkNotification).messages, 1u);
  EXPECT_EQ(rec.ByKind(MessageKind::kKeyProbe).messages, 0u);
}

TEST(TrafficRecorderTest, PerPeerSentReceived) {
  TrafficRecorder rec;
  rec.Record(0, 1, MessageKind::kKeyProbe, 5, 2);
  rec.Record(2, 0, MessageKind::kKeyProbe, 3, 1);
  EXPECT_EQ(rec.SentBy(0).messages, 1u);
  EXPECT_EQ(rec.SentBy(0).postings, 5u);
  EXPECT_EQ(rec.ReceivedBy(0).postings, 3u);
  EXPECT_EQ(rec.ReceivedBy(1).messages, 1u);
  EXPECT_EQ(rec.SentBy(1).messages, 0u);
  EXPECT_EQ(rec.num_peers(), 3u);
}

TEST(TrafficRecorderTest, AutoGrowsPeerTable) {
  TrafficRecorder rec;
  rec.Record(7, 9, MessageKind::kMaintenance, 0, 0);
  EXPECT_EQ(rec.num_peers(), 10u);
}

TEST(TrafficRecorderTest, ResetClearsCountersKeepsPeers) {
  TrafficRecorder rec;
  rec.Record(0, 1, MessageKind::kKeyProbe, 5, 2);
  rec.Reset();
  EXPECT_EQ(rec.total().messages, 0u);
  EXPECT_EQ(rec.SentBy(0).messages, 0u);
  EXPECT_EQ(rec.ByKind(MessageKind::kKeyProbe).messages, 0u);
  EXPECT_EQ(rec.num_peers(), 2u);
}

TEST(TrafficRecorderTest, SnapshotSupportsDifferentialMeasurement) {
  TrafficRecorder rec;
  rec.Record(0, 1, MessageKind::kKeyProbe, 5, 1);
  TrafficCounters before = rec.Snapshot();
  rec.Record(0, 1, MessageKind::kPostingsResponse, 25, 1);
  TrafficCounters after = rec.Snapshot();
  EXPECT_EQ(after.postings - before.postings, 25u);
  EXPECT_EQ(after.messages - before.messages, 1u);
}

TEST(TrafficRecorderTest, ConcurrentRecordsAreExact) {
  // Pool-width writers, each on its own shard slot, while the per-peer
  // tables grow underneath them; the merged read must be exact.
  constexpr size_t kMessages = 40000;
  constexpr PeerId kPeers = 37;
  auto message = [](size_t i) {
    return std::array<uint64_t, 5>{
        i % kPeers, (i * 7 + 3) % kPeers, i % kNumMessageKinds, i % 13,
        i % 5};
  };
  TrafficCounters total;
  std::array<TrafficCounters, kNumMessageKinds> by_kind{};
  std::vector<TrafficCounters> sent(kPeers), received(kPeers);
  const CostModel model;
  for (size_t i = 0; i < kMessages; ++i) {
    const auto [src, dst, kind, postings, hops] = message(i);
    const TrafficCounters delta{
        1, postings, hops,
        model.header_bytes + postings * model.posting_bytes};
    total.Add(delta);
    by_kind[kind].Add(delta);
    sent[src].Add(delta);
    received[dst].Add(delta);
  }

  TrafficRecorder rec(model);
  ThreadPool pool(4);
  ParallelForEach(&pool, kMessages, [&](size_t i) {
    const auto [src, dst, kind, postings, hops] = message(i);
    rec.Record(static_cast<PeerId>(src), static_cast<PeerId>(dst),
               static_cast<MessageKind>(kind), postings, hops);
  });

  EXPECT_EQ(rec.total(), total);
  for (size_t k = 0; k < kNumMessageKinds; ++k) {
    EXPECT_EQ(rec.ByKind(static_cast<MessageKind>(k)), by_kind[k]) << k;
  }
  ASSERT_EQ(rec.num_peers(), kPeers);
  for (PeerId p = 0; p < kPeers; ++p) {
    EXPECT_EQ(rec.SentBy(p), sent[p]) << p;
    EXPECT_EQ(rec.ReceivedBy(p), received[p]) << p;
  }
}

TEST(TrafficCountersTest, AddAccumulates) {
  TrafficCounters a{1, 2, 3, 4};
  TrafficCounters b{10, 20, 30, 40};
  a.Add(b);
  EXPECT_EQ(a, (TrafficCounters{11, 22, 33, 44}));
}

TEST(MessageKindTest, NamesAreStable) {
  EXPECT_EQ(MessageKindName(MessageKind::kInsertPostings),
            "InsertPostings");
  EXPECT_EQ(MessageKindName(MessageKind::kNdkNotification),
            "NdkNotification");
  EXPECT_EQ(MessageKindName(MessageKind::kMaintenance), "Maintenance");
}

}  // namespace
}  // namespace hdk::net
