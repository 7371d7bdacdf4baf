// The deterministic fault-injection transport (net/fault.h): FaultPlan
// spec grammar, pure-hash loss/latency decisions (bit-reproducible at any
// thread count), hard peer deaths (explicit, scripted, renumbered on
// departure), the PeerHealth strain tracker, and the three Channel send
// modes. Contract: an INACTIVE injector records exactly one message per
// send — byte-identical traffic to the pre-fault engine.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "net/fault.h"
#include "net/traffic.h"

namespace hdk::net {
namespace {

TEST(FaultPlanTest, EmptySpecIsInert) {
  auto plan = FaultPlan::Parse("");
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->active());
  EXPECT_EQ(plan->seed, 0u);
  EXPECT_EQ(plan->loss, 0.0);
  EXPECT_EQ(plan->max_latency_ticks, 0u);
  EXPECT_TRUE(plan->deaths.empty());
}

TEST(FaultPlanTest, FullSpecParsesAndRoundTrips) {
  auto plan = FaultPlan::Parse(
      " seed=7, loss=0.01, loss.KeyProbe=0.05, latency=3, kill=2@100 ");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->active());
  EXPECT_EQ(plan->seed, 7u);
  EXPECT_DOUBLE_EQ(plan->loss, 0.01);
  EXPECT_DOUBLE_EQ(plan->LossFor(MessageKind::kKeyProbe), 0.05);
  // Kinds without an override inherit the global probability.
  EXPECT_DOUBLE_EQ(plan->LossFor(MessageKind::kInsertPostings), 0.01);
  EXPECT_EQ(plan->max_latency_ticks, 3u);
  ASSERT_EQ(plan->deaths.size(), 1u);
  EXPECT_EQ(plan->deaths[0].peer, 2u);
  EXPECT_EQ(plan->deaths[0].after_messages, 100u);

  auto reparsed = FaultPlan::Parse(plan->ToString());
  ASSERT_TRUE(reparsed.ok()) << plan->ToString();
  EXPECT_EQ(*reparsed, *plan);
}

TEST(FaultPlanTest, SyncKindOverridesParseAndRoundTrip) {
  // The replica-maintenance and anti-entropy message kinds are first-
  // class grammar citizens: scripting their loss is how the sync tests
  // manufacture divergence.
  auto plan = FaultPlan::Parse(
      "loss.ReplicaPush=0.4,loss.ReplicaForget=0.9,loss.SyncStrata=0.1,"
      "loss.SyncIbf=0.1,loss.SyncDelta=0.1,loss.SyncFull=0.1");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->active());
  EXPECT_DOUBLE_EQ(plan->LossFor(MessageKind::kReplicaPush), 0.4);
  EXPECT_DOUBLE_EQ(plan->LossFor(MessageKind::kReplicaForget), 0.9);
  EXPECT_DOUBLE_EQ(plan->LossFor(MessageKind::kSyncStrata), 0.1);
  EXPECT_DOUBLE_EQ(plan->LossFor(MessageKind::kSyncIbf), 0.1);
  EXPECT_DOUBLE_EQ(plan->LossFor(MessageKind::kSyncDelta), 0.1);
  EXPECT_DOUBLE_EQ(plan->LossFor(MessageKind::kSyncFull), 0.1);
  // Query/indexing kinds stay on the (zero) global default.
  EXPECT_DOUBLE_EQ(plan->LossFor(MessageKind::kKeyProbe), 0.0);

  auto reparsed = FaultPlan::Parse(plan->ToString());
  ASSERT_TRUE(reparsed.ok()) << plan->ToString();
  EXPECT_EQ(*reparsed, *plan);
}

TEST(FaultPlanTest, LatencyOverridesParseAndRoundTrip) {
  // Per-kind and per-peer latency shaping: query probes crawl a little
  // everywhere, peer 3 is a straggler for EVERY kind addressed to it.
  auto plan = FaultPlan::Parse(
      "seed=9,latency=2,latency.KeyProbe=5,latency.PostingsResponse=7,"
      "latency@3=64,latency@1=0");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->active());
  // Precedence: per-peer destination beats per-kind beats global.
  EXPECT_EQ(plan->MaxLatencyFor(MessageKind::kKeyProbe, 3), 64u);
  EXPECT_EQ(plan->MaxLatencyFor(MessageKind::kKeyProbe, 2), 5u);
  EXPECT_EQ(plan->MaxLatencyFor(MessageKind::kPostingsResponse, 2), 7u);
  EXPECT_EQ(plan->MaxLatencyFor(MessageKind::kInsertPostings, 2), 2u);
  // An explicit latency@peer=0 pins that destination to zero ticks even
  // when kind/global overrides exist.
  EXPECT_EQ(plan->MaxLatencyFor(MessageKind::kKeyProbe, 1), 0u);

  auto reparsed = FaultPlan::Parse(plan->ToString());
  ASSERT_TRUE(reparsed.ok()) << plan->ToString();
  EXPECT_EQ(*reparsed, *plan);
}

TEST(FaultPlanTest, KindLatencyAloneActivatesThePlan) {
  // A plan that ONLY shapes latency of one kind must count as active —
  // otherwise the injector would skip its draws entirely.
  auto plan = FaultPlan::Parse("latency.KeyProbe=4");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->active());
  EXPECT_EQ(plan->max_latency_ticks, 0u);

  auto peer_only = FaultPlan::Parse("latency@2=6");
  ASSERT_TRUE(peer_only.ok());
  EXPECT_TRUE(peer_only->active());

  // Zero-tick overrides alone stay inert.
  auto zeros = FaultPlan::Parse("latency.KeyProbe=0,latency@2=0");
  ASSERT_TRUE(zeros.ok());
  EXPECT_FALSE(zeros->active());
}

TEST(FaultPlanTest, PeerLatencyLastWriteWinsAndRenumbers) {
  auto plan = FaultPlan::Parse("latency@4=8,latency@4=16,latency@6=32");
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->peer_latency.size(), 2u);
  EXPECT_EQ(plan->MaxLatencyFor(MessageKind::kKeyProbe, 4), 16u);

  // Departures renumber per-peer latency ids exactly like deaths.
  FaultInjector injector;
  injector.Install(*plan);
  injector.OnPeerRemoved(5);  // 6 renumbers to 5
  EXPECT_EQ(injector.plan().MaxLatencyFor(MessageKind::kKeyProbe, 5), 32u);
  injector.OnPeerRemoved(4);  // the overridden peer itself departs
  // Its entry is dropped and the straggler renumbers once more.
  EXPECT_EQ(injector.plan().MaxLatencyFor(MessageKind::kKeyProbe, 4), 32u);
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(FaultPlan::Parse("seed").ok());          // no '='
  EXPECT_FALSE(FaultPlan::Parse("seed=banana").ok());
  EXPECT_FALSE(FaultPlan::Parse("loss=1.0").ok());      // must be < 1
  EXPECT_FALSE(FaultPlan::Parse("loss=-0.1").ok());
  EXPECT_FALSE(FaultPlan::Parse("loss=nope").ok());
  EXPECT_FALSE(FaultPlan::Parse("loss.WarpDrive=0.1").ok());
  EXPECT_FALSE(FaultPlan::Parse("latency=99999999999999").ok());
  EXPECT_FALSE(FaultPlan::Parse("kill=2").ok());        // wants X@N
  EXPECT_FALSE(FaultPlan::Parse("kill=@5").ok());
  EXPECT_FALSE(FaultPlan::Parse("warp=1").ok());        // unknown key
  EXPECT_FALSE(FaultPlan::Parse("latency.WarpDrive=3").ok());
  EXPECT_FALSE(FaultPlan::Parse("latency.KeyProbe=oops").ok());
  EXPECT_FALSE(FaultPlan::Parse("latency@=3").ok());    // wants a peer id
  EXPECT_FALSE(FaultPlan::Parse("latency@2=banana").ok());
  EXPECT_FALSE(FaultPlan::Parse("latency@2=99999999999999").ok());
  // Valid per-kind probabilities for every kind name.
  for (size_t k = 0; k < kNumMessageKinds; ++k) {
    const std::string spec =
        "loss." +
        std::string(MessageKindName(static_cast<MessageKind>(k))) + "=0.5";
    EXPECT_TRUE(FaultPlan::Parse(spec).ok()) << spec;
  }
}

TEST(FaultInjectorTest, DecisionsArePureHashes) {
  FaultPlan plan;
  plan.seed = 42;
  plan.loss = 0.3;
  plan.max_latency_ticks = 5;

  FaultInjector a, b;
  a.Install(plan);
  b.Install(plan);
  ASSERT_TRUE(a.active());

  // Identical (kind, src, dst, salt, attempt) -> identical decisions on
  // repeated calls AND across injector instances: there is no hidden RNG
  // stream, so any thread interleaving sees the same schedule.
  bool saw_lost = false, saw_delivered = false;
  for (uint64_t salt = 0; salt < 200; ++salt) {
    const bool lost =
        a.Lost(MessageKind::kKeyProbe, 1, 2, salt, /*attempt=*/0);
    EXPECT_EQ(lost, a.Lost(MessageKind::kKeyProbe, 1, 2, salt, 0));
    EXPECT_EQ(lost, b.Lost(MessageKind::kKeyProbe, 1, 2, salt, 0));
    EXPECT_EQ(a.LatencyTicks(MessageKind::kKeyProbe, 1, 2, salt, 0),
              b.LatencyTicks(MessageKind::kKeyProbe, 1, 2, salt, 0));
    EXPECT_LE(a.LatencyTicks(MessageKind::kKeyProbe, 1, 2, salt, 0), 5u);
    saw_lost |= lost;
    saw_delivered |= !lost;
  }
  EXPECT_TRUE(saw_lost);
  EXPECT_TRUE(saw_delivered);

  // A different seed yields a different schedule somewhere.
  FaultPlan other = plan;
  other.seed = 43;
  FaultInjector c;
  c.Install(other);
  bool differs = false;
  for (uint64_t salt = 0; salt < 200 && !differs; ++salt) {
    differs = a.Lost(MessageKind::kKeyProbe, 1, 2, salt, 0) !=
              c.Lost(MessageKind::kKeyProbe, 1, 2, salt, 0);
  }
  EXPECT_TRUE(differs);
}

TEST(FaultInjectorTest, LossRateTracksProbability) {
  FaultPlan plan;
  plan.seed = 9;
  plan.loss = 0.2;
  FaultInjector injector;
  injector.Install(plan);

  uint64_t lost = 0;
  const uint64_t samples = 20000;
  for (uint64_t salt = 0; salt < samples; ++salt) {
    lost += injector.Lost(MessageKind::kInsertPostings, 3, 4, salt, 0);
  }
  const double rate = static_cast<double>(lost) / samples;
  EXPECT_NEAR(rate, 0.2, 0.02);
}

TEST(FaultInjectorTest, KillReviveAndScriptedDeaths) {
  FaultInjector injector;
  EXPECT_FALSE(injector.active());
  EXPECT_FALSE(injector.PeerDead(3));

  injector.KillPeer(3);
  EXPECT_TRUE(injector.active());
  EXPECT_TRUE(injector.PeerDead(3));
  EXPECT_FALSE(injector.PeerDead(2));
  injector.RevivePeer(3);
  EXPECT_FALSE(injector.PeerDead(3));

  // kill=1@3: peer 1 dies after receiving its third message; kill=0@0
  // is dead from the start.
  auto plan = FaultPlan::Parse("kill=1@3,kill=0@0");
  ASSERT_TRUE(plan.ok());
  FaultInjector scripted;
  scripted.Install(*plan);
  EXPECT_TRUE(scripted.PeerDead(0));
  EXPECT_FALSE(scripted.PeerDead(1));
  scripted.CountMessageTo(1);
  scripted.CountMessageTo(1);
  EXPECT_FALSE(scripted.PeerDead(1));
  scripted.CountMessageTo(1);
  EXPECT_TRUE(scripted.PeerDead(1));
}

TEST(FaultInjectorTest, OnPeerRemovedRenumbers) {
  FaultInjector injector;
  auto plan = FaultPlan::Parse("kill=5@10");
  ASSERT_TRUE(plan.ok());
  injector.Install(*plan);
  injector.KillPeer(3);

  // Peer 1 departs through the membership protocol: ids above 1 shift
  // down — dead peer 3 becomes 2, the scripted death of 5 becomes 4.
  injector.OnPeerRemoved(1);
  EXPECT_TRUE(injector.PeerDead(2));
  EXPECT_FALSE(injector.PeerDead(3));
  ASSERT_EQ(injector.plan().deaths.size(), 1u);
  EXPECT_EQ(injector.plan().deaths[0].peer, 4u);

  // Removing the scripted peer itself drops the entry.
  injector.OnPeerRemoved(4);
  EXPECT_TRUE(injector.plan().deaths.empty());
}

TEST(PeerHealthTest, StrainAndSuspects) {
  PeerHealth health(/*suspect_threshold=*/2);
  // Unsized peers read as healthy; recording needs the serial sizing.
  EXPECT_EQ(health.strain(7), 0u);
  health.EnsurePeers(8);
  EXPECT_EQ(health.strain(7), 0u);
  EXPECT_FALSE(health.Suspect(7));

  health.RecordFailure(7);
  EXPECT_EQ(health.strain(7), 1u);
  EXPECT_FALSE(health.Suspect(7));
  health.RecordFailure(7);
  EXPECT_TRUE(health.Suspect(7));
  EXPECT_EQ(health.Suspects(), std::vector<PeerId>{7});

  // One success clears the streak — strain counts CONSECUTIVE failures.
  health.RecordSuccess(7);
  EXPECT_EQ(health.strain(7), 0u);
  EXPECT_FALSE(health.Suspect(7));

  health.RecordFailure(2);
  health.RecordFailure(2);
  health.RecordFailure(4);
  health.RecordFailure(4);
  health.OnPeerRemoved(3);  // 4 renumbers to 3
  EXPECT_EQ(health.Suspects(), (std::vector<PeerId>{2, 3}));
}

TEST(ChannelTest, InactiveInjectorRecordsExactlyOneMessage) {
  TrafficRecorder traffic;
  traffic.EnsurePeers(4);

  // All three modes, with and without an (inactive) injector bundle.
  FaultInjector injector;
  PeerHealth health;
  health.EnsurePeers(4);
  for (const Resilience& res :
       {Resilience{}, Resilience{&injector, &health, nullptr, {}, 1, {}}}) {
    TrafficRecorder fresh;
    fresh.EnsurePeers(4);
    Channel channel(&fresh, res);
    auto s1 = channel.Send(0, 1, MessageKind::kKeyProbe, 5, 2, 99);
    auto s2 = channel.SendReliable(1, 2, MessageKind::kPostingsResponse,
                                   7, 1, 99);
    auto s3 = channel.SendAssured(2, 3, MessageKind::kInsertPostings, 9,
                                  3, 99);
    EXPECT_TRUE(s1.delivered);
    EXPECT_TRUE(s2.delivered);
    EXPECT_TRUE(s3.delivered);
    EXPECT_EQ(s1.retries + s2.retries + s3.retries, 0u);
    EXPECT_EQ(s1.latency_ticks + s2.latency_ticks + s3.latency_ticks, 0u);
    EXPECT_EQ(fresh.total().messages, 3u);
    EXPECT_EQ(fresh.total().postings, 21u);
    EXPECT_EQ(fresh.total().hops, 6u);
  }
}

TEST(ChannelTest, SendReliableRetriesThenFailsOverOrDegrades) {
  TrafficRecorder traffic;
  traffic.EnsurePeers(4);
  FaultInjector injector;
  PeerHealth health;
  injector.EnsurePeers(4);
  health.EnsurePeers(4);
  Resilience res{&injector, &health, nullptr, RetryPolicy{4, 1}, 1, {}};
  Channel channel(&traffic, res);

  // A hard-dead destination: the first attempt is recorded (bandwidth is
  // consumed), further retries are pointless and skipped, health notes
  // the failure.
  injector.KillPeer(2);
  auto dead = channel.SendReliable(0, 2, MessageKind::kKeyProbe, 0, 2, 1);
  EXPECT_FALSE(dead.delivered);
  EXPECT_EQ(traffic.total().messages, 1u);
  EXPECT_EQ(health.strain(2), 1u);

  // Heavy loss against a LIVE peer: across many logical messages every
  // one is eventually delivered or exhausts exactly max_attempts
  // records; retried sends surface their extra attempts.
  injector.RevivePeer(2);
  FaultPlan plan;
  plan.seed = 5;
  plan.loss = 0.5;
  injector.Install(plan);
  uint64_t retried = 0, exhausted = 0;
  const uint64_t before = traffic.total().messages;
  uint64_t expected_records = 0;
  for (uint64_t salt = 0; salt < 300; ++salt) {
    auto out = channel.SendReliable(0, 2, MessageKind::kKeyProbe, 0, 2,
                                    salt);
    expected_records += 1 + out.retries;
    retried += out.retries > 0;
    exhausted += !out.delivered;
    if (!out.delivered) {
      EXPECT_EQ(out.retries, 3u);
    }
    if (out.retries > 0) {
      EXPECT_GT(out.latency_ticks, 0u);
    }
  }
  EXPECT_GT(retried, 0u);
  EXPECT_GT(exhausted, 0u);  // p^4 ~ 6% of 300
  EXPECT_EQ(traffic.total().messages - before, expected_records);
}

TEST(ChannelTest, SendAssuredChargesDeadPeersOneAttempt) {
  TrafficRecorder traffic;
  traffic.EnsurePeers(4);
  FaultInjector injector;
  injector.EnsurePeers(4);
  Resilience res{&injector, nullptr, nullptr, RetryPolicy{3, 1}, 1, {}};
  Channel channel(&traffic, res);

  injector.KillPeer(1);
  auto dead = channel.SendAssured(0, 1, MessageKind::kInsertPostings, 10,
                                  2, 7);
  EXPECT_FALSE(dead.delivered);
  EXPECT_EQ(dead.retries, 0u);
  EXPECT_EQ(traffic.total().messages, 1u);

  // Against a live peer under heavy loss, at most max_attempts records
  // are charged; an undelivered outcome is the caller's cue to park the
  // payload on the redelivery queue (the barrier delivers it later).
  injector.RevivePeer(1);
  FaultPlan plan;
  plan.seed = 11;
  plan.loss = 0.6;
  injector.Install(plan);
  bool saw_exhausted = false;
  for (uint64_t salt = 0; salt < 200; ++salt) {
    const uint64_t before = traffic.total().messages;
    auto out = channel.SendAssured(0, 1, MessageKind::kInsertPostings, 10,
                                   2, salt);
    const uint64_t records = traffic.total().messages - before;
    EXPECT_LE(records, 3u);
    EXPECT_EQ(records, 1 + out.retries);
    saw_exhausted |= !out.delivered;
  }
  EXPECT_TRUE(saw_exhausted);  // 0.6^3 ~ 22% of 200
}

TEST(ChannelTest, ConcurrentSendsMatchASerialRun) {
  // Pool-width senders share one lossy injector with a killed peer, one
  // PeerHealth and one TrafficRecorder — the query path's shape. Every
  // decision is a pure hash, so the outcome of each send and the per-kind
  // traffic equal a serial run's.
  constexpr size_t kSends = 4000;
  constexpr PeerId kPeers = 8;
  constexpr PeerId kDead = 5;
  struct Net {
    TrafficRecorder traffic;
    FaultInjector injector;
    PeerHealth health;
    Net() {
      traffic.EnsurePeers(kPeers);
      injector.EnsurePeers(kPeers);
      health.EnsurePeers(kPeers);
      FaultPlan plan;
      plan.seed = 3;
      plan.loss = 0.2;
      plan.max_latency_ticks = 2;
      injector.Install(plan);
      injector.KillPeer(kDead);
    }
    bool Send(size_t i) {
      const Resilience res{&injector, &health, nullptr, RetryPolicy{4, 1}, 1,
                           {}};
      const auto src = static_cast<PeerId>(i % kPeers);
      const auto dst = static_cast<PeerId>((i * 3 + 1) % kPeers);
      const MessageKind kind = i % 2 == 0 ? MessageKind::kKeyProbe
                                          : MessageKind::kPostingsResponse;
      return Channel(&traffic, res)
          .SendReliable(src, dst, kind, i % 7, 1 + i % 3, /*salt=*/i)
          .delivered;
    }
  };

  Net serial;
  std::vector<uint8_t> serial_delivered(kSends);
  for (size_t i = 0; i < kSends; ++i) serial_delivered[i] = serial.Send(i);

  Net shared;
  std::vector<uint8_t> delivered(kSends);
  ThreadPool pool(4);
  ParallelForEach(&pool, kSends,
                  [&](size_t i) { delivered[i] = shared.Send(i); });

  EXPECT_EQ(delivered, serial_delivered);
  for (size_t k = 0; k < kNumMessageKinds; ++k) {
    const auto kind = static_cast<MessageKind>(k);
    EXPECT_EQ(shared.traffic.ByKind(kind), serial.traffic.ByKind(kind))
        << MessageKindName(kind);
  }
  uint64_t dead_sends = 0;
  for (size_t i = 0; i < kSends; ++i) {
    if ((i * 3 + 1) % kPeers == kDead) {
      ++dead_sends;
      EXPECT_FALSE(delivered[i]) << "send " << i;
    }
  }
  // A dead peer never succeeds, so its strain counts every send to it.
  EXPECT_EQ(shared.health.strain(kDead), dead_sends);
  EXPECT_TRUE(shared.health.Suspect(kDead));
}

}  // namespace
}  // namespace hdk::net
