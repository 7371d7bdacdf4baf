// Deterministic fault injection for the simulated network.
//
// The engine's protocols were written against a perfect transport: the
// TrafficRecorder counts messages but every one of them is implicitly
// delivered. This header adds the failure vocabulary the ROADMAP's real
// transport needs to already exist: a seedable FaultInjector that decides
// — per message kind, per (src, dst) pair — whether a message is lost,
// how many latency ticks it accrues, and whether the destination peer is
// hard-dead (an unannounced failure: every message to it fails until a
// membership event — e.g. HdkSearchEngine::EvictDeadPeers — removes it).
// A PeerHealth strain tracker (modeled on distft's session_metadata)
// counts consecutive failures per peer and orders replica failover.
//
// DETERMINISM: loss and latency decisions are PURE HASHES of
// (seed, kind, src, dst, salt, attempt) — there is no shared RNG stream,
// so the fault schedule is bit-reproducible at any thread count and any
// interleaving. Scripted deaths ("peer X dies after receiving N
// messages") count arrivals with a per-peer atomic and are exact only
// under serial execution; deterministic tests use KillPeer() directly.
//
// SIZING CONTRACT: the per-peer state of FaultInjector and PeerHealth
// (dead flags, arrival counts, strains) is one flat array of atomics per
// field. Its SIZE changes only in serial sections — EnsurePeers, Install,
// KillPeer and OnPeerRemoved, which the engine calls between parallel
// regions (DistributedGlobalIndex::EnsureCapacity sizes it to the overlay
// whenever a build, join or snapshot load changes the peer count, and
// departures compact it). Every other member — PeerDead, strain,
// Suspect, RecordSuccess, RecordFailure, CountMessageTo — is a plain
// atomic read or write with no lock, safe from any number of threads.
// Writes to a peer id at or beyond the sized range are a caller bug
// (debug-asserted); reads there see a live, unstrained peer.
//
// The Channel wraps a TrafficRecorder + a Resilience bundle and is the
// single choke point the protocols send through:
//   Send          one attempt, always recorded; reports delivery.
//   SendReliable  bounded retry with exponential backoff (query path);
//                 updates PeerHealth on success/failure.
//   SendAssured   barrier-reliable (indexing path): delivery guaranteed
//                 unless the destination is hard-dead; attempts beyond
//                 the retry budget are absorbed by the caller's
//                 redelivery queue, so only up to kMaxSendAttempts
//                 messages are recorded.
// With an inactive injector every mode records exactly one message —
// byte-identical traffic to the pre-fault engine.
#ifndef HDKP2P_NET_FAULT_H_
#define HDKP2P_NET_FAULT_H_

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/search_options.h"
#include "common/status.h"
#include "common/types.h"
#include "net/traffic.h"
#include "sync/sync.h"

namespace hdk::net {

/// "peer `peer` dies unannounced after receiving `after_messages`
/// messages." after_messages == 0 means dead from the start.
struct ScriptedDeath {
  PeerId peer = kInvalidPeer;
  uint64_t after_messages = 0;

  bool operator==(const ScriptedDeath&) const = default;
};

/// "every message delivered TO `peer` draws latency from [0, ticks]" —
/// the per-peer override that scripts one slow holder.
struct PeerLatency {
  PeerId peer = kInvalidPeer;
  uint32_t max_ticks = 0;

  bool operator==(const PeerLatency&) const = default;
};

/// Declarative fault schedule. Parsed from / serialized to this spec
/// grammar:
///
///   seed=7,loss=0.01,loss.KeyProbe=0.05,latency=3,kill=2@100
///
/// comma-separated key=value pairs:
///   seed=N            injector seed (default 0)
///   loss=P            global loss probability, 0 <= P < 1
///   loss.<Kind>=P     per-kind override (Kind = MessageKindName, e.g.
///                     KeyProbe, InsertPostings); falls back to `loss`
///   latency=T         max added latency ticks per delivered message
///                     (actual ticks = hash-uniform in [0, T])
///   latency.<Kind>=T  per-kind max-latency override; falls back to
///                     `latency`
///   latency@X=T       per-destination-peer override: every message TO
///                     peer X draws from [0, T] — the strongest
///                     precedence, for scripting a single slow holder
///   kill=X@N          scripted death: peer X dies after receiving N
///                     messages (repeatable)
struct FaultPlan {
  uint64_t seed = 0;
  double loss = 0.0;
  /// Per-kind loss override; negative = inherit the global `loss`.
  std::array<double, kNumMessageKinds> kind_loss = [] {
    std::array<double, kNumMessageKinds> a;
    a.fill(-1.0);
    return a;
  }();
  uint32_t max_latency_ticks = 0;
  /// Per-kind max-latency override; negative = inherit `latency`.
  std::array<int64_t, kNumMessageKinds> kind_latency = [] {
    std::array<int64_t, kNumMessageKinds> a;
    a.fill(-1);
    return a;
  }();
  /// Per-destination-peer max-latency override (strongest precedence).
  std::vector<PeerLatency> peer_latency;
  std::vector<ScriptedDeath> deaths;

  /// True when this plan can actually perturb traffic.
  bool active() const {
    if (loss > 0.0 || max_latency_ticks > 0 || !deaths.empty()) return true;
    for (double p : kind_loss) {
      if (p > 0.0) return true;
    }
    for (int64_t t : kind_latency) {
      if (t > 0) return true;
    }
    for (const PeerLatency& pl : peer_latency) {
      if (pl.max_ticks > 0) return true;
    }
    return false;
  }

  /// Effective loss probability for one kind.
  double LossFor(MessageKind kind) const {
    const double p = kind_loss[static_cast<size_t>(kind)];
    return p < 0.0 ? loss : p;
  }

  /// Effective max latency of a message of `kind` delivered to `dst`:
  /// per-peer override first, then per-kind, then the global `latency`.
  uint32_t MaxLatencyFor(MessageKind kind, PeerId dst) const {
    for (const PeerLatency& pl : peer_latency) {
      if (pl.peer == dst) return pl.max_ticks;
    }
    const int64_t t = kind_latency[static_cast<size_t>(kind)];
    return t >= 0 ? static_cast<uint32_t>(t) : max_latency_ticks;
  }

  /// Parses the spec grammar above. Empty input yields the inert plan.
  static Result<FaultPlan> Parse(std::string_view spec);

  /// Round-trips through Parse().
  std::string ToString() const;

  bool operator==(const FaultPlan&) const = default;
};

/// Bounded retry shared by the query and indexing send paths: total
/// attempts per logical message (first try + retries).
inline constexpr uint32_t kMaxSendAttempts = 4;
/// Backoff before retry k (k >= 1) waits kBackoffBaseTicks << (k - 1)
/// ticks of simulated time, surfaced in QueryCost::latency_ticks —
/// nothing actually sleeps.
inline constexpr uint64_t kBackoffBaseTicks = 1;

/// One atomic per peer. Elements are read and written from any thread;
/// the size changes only through Grow/Erase, which reallocate and are
/// therefore serial-section only (see SIZING CONTRACT above).
template <typename T>
class PeerSlots {
 public:
  size_t size() const { return slots_.size(); }

  /// The slot of `peer`, or nullptr beyond the sized range.
  const std::atomic<T>* Find(PeerId peer) const {
    return peer < slots_.size() ? &slots_[peer] : nullptr;
  }

  /// The slot of `peer`, which the caller has sized for.
  std::atomic<T>& At(PeerId peer) {
    assert(peer < slots_.size() && "per-peer state not sized for this peer");
    return slots_[peer];
  }

  void Grow(size_t n) {
    if (n > slots_.size()) Reallocate(n, kInvalidPeer);
  }

  /// Drops `peer`'s slot and shifts the ids above it down by one.
  void Erase(PeerId peer) {
    if (peer < slots_.size()) Reallocate(slots_.size() - 1, peer);
  }

 private:
  /// Moves every slot but `skip`, in order, into a new array of `n`.
  void Reallocate(size_t n, PeerId skip) {
    std::vector<std::atomic<T>> next(n);
    for (size_t p = 0, q = 0; p < slots_.size(); ++p) {
      if (p == skip) continue;
      next[q++].store(slots_[p].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    }
    slots_.swap(next);
  }

  std::vector<std::atomic<T>> slots_;
};

/// Deterministic, thread-safe fault decision oracle.
class FaultInjector {
 public:
  FaultInjector() = default;

  /// Replaces the plan. Serial sections only (between parallel regions).
  void Install(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }

  /// False when every decision is "deliver instantly" — the transport's
  /// fast path skips the oracle entirely.
  bool active() const { return active_.load(std::memory_order_acquire); }

  /// Pure-hash loss decision for attempt `attempt` of the message
  /// identified by (kind, src, dst, salt). `salt` distinguishes logical
  /// messages with identical endpoints (callers pass a key hash or
  /// sequence number).
  bool Lost(MessageKind kind, PeerId src, PeerId dst, uint64_t salt,
            uint32_t attempt) const;

  /// Pure-hash added latency in [0, plan.max_latency_ticks] for a
  /// delivered message.
  uint32_t LatencyTicks(MessageKind kind, PeerId src, PeerId dst,
                        uint64_t salt, uint32_t attempt) const;

  /// True when `peer` is hard-dead: killed explicitly, by script, or
  /// not yet revived. Dead peers fail every message deterministically.
  /// Lock-free.
  bool PeerDead(PeerId peer) const {
    const std::atomic<bool>* dead = dead_.Find(peer);
    return dead != nullptr && dead->load(std::memory_order_acquire);
  }

  /// Marks `peer` hard-dead (growing the per-peer state to cover it) /
  /// alive again. Serial sections only.
  void KillPeer(PeerId peer);
  void RevivePeer(PeerId peer);

  /// Counts one arrival at `dst` and applies scripted deaths. Called by
  /// the Channel on every delivery attempt; lock-free, exact only
  /// serially. `dst` must be within the sized range.
  void CountMessageTo(PeerId dst);

  /// Overlay departure: `peer` left through the membership protocol, and
  /// every id above it was renumbered down by one. Compacts the
  /// dead-peer and arrival-count state the same way. Serial sections
  /// only.
  void OnPeerRemoved(PeerId peer);

  /// Grows the per-peer state to `n` peers (monotone). Serial sections
  /// only: it reallocates what concurrent senders read.
  void EnsurePeers(size_t n);

 private:
  uint64_t DecisionHash(uint64_t stream, MessageKind kind, PeerId src,
                        PeerId dst, uint64_t salt, uint32_t attempt) const;

  FaultPlan plan_;
  std::atomic<bool> active_{false};
  PeerSlots<bool> dead_;
  PeerSlots<uint64_t> arrivals_;
};

/// Consecutive-failure strain tracker (distft session_metadata style):
/// every failed send to a peer bumps its strain, every success clears
/// it. Peers whose strain reaches kDefaultSuspectThreshold are Suspect,
/// and failover orders them last. Nothing evicts a suspect peer; only
/// hard-dead peers leave, through the explicit
/// HdkSearchEngine::EvictDeadPeers. Same sizing contract as the
/// FaultInjector: recording and reading are lock-free, EnsurePeers and
/// OnPeerRemoved are serial-section only.
class PeerHealth {
 public:
  static constexpr uint32_t kDefaultSuspectThreshold = 4;

  /// Clears `peer`'s strain. Writes only when the strain is nonzero, so
  /// the common all-healthy case leaves the slot's cache line shared.
  void RecordSuccess(PeerId peer) {
    std::atomic<uint32_t>& strain = strain_.At(peer);
    if (strain.load(std::memory_order_relaxed) != 0) {
      strain.store(0, std::memory_order_release);
    }
  }
  void RecordFailure(PeerId peer) {
    strain_.At(peer).fetch_add(1, std::memory_order_acq_rel);
  }

  /// Current consecutive-failure count (0 for unknown peers).
  uint32_t strain(PeerId peer) const {
    const std::atomic<uint32_t>* strain = strain_.Find(peer);
    return strain == nullptr ? 0 : strain->load(std::memory_order_acquire);
  }

  /// strain(peer) >= kDefaultSuspectThreshold.
  bool Suspect(PeerId peer) const {
    return strain(peer) >= kDefaultSuspectThreshold;
  }

  /// Overlay departure renumbering (see FaultInjector::OnPeerRemoved).
  /// Serial sections only.
  void OnPeerRemoved(PeerId peer) { strain_.Erase(peer); }

  /// Grows the strain table to `n` peers. Serial sections only.
  void EnsurePeers(size_t n) { strain_.Grow(n); }

 private:
  PeerSlots<uint32_t> strain_;
};

/// Everything a protocol needs to send resiliently, bundled so the
/// constructors stay short. All pointers may be null (no injection, no
/// health tracking) — the defaults reproduce the pre-fault engine.
struct Resilience {
  FaultInjector* injector = nullptr;
  PeerHealth* health = nullptr;
  /// Number of fragment holders per key (primary + replication-1
  /// salted replicas). 1 = no replication (default).
  uint32_t replication = 1;
  /// Sketch tuning of the anti-entropy replica reconciliation (see
  /// sync/sync.h).
  sync::SyncConfig sync;
};

/// Outcome of one resilient send.
struct SendOutcome {
  bool delivered = false;
  /// Attempts beyond the first (each recorded as its own message).
  uint32_t retries = 0;
  /// Injected latency + backoff ticks accrued across attempts.
  uint64_t latency_ticks = 0;
  /// True when a deadline budget ran out mid-send: the remaining retries
  /// were abandoned (delivered stays false) and the caller must degrade
  /// instead of failing over.
  bool deadline_exhausted = false;
};

/// The choke point between the protocols and the TrafficRecorder. Cheap
/// to construct (two pointers + a small bundle), so call sites make one on the
/// fly: Channel(traffic, resilience).Send(...).
class Channel {
 public:
  Channel(const TrafficRecorder* traffic, const Resilience& res)
      : traffic_(traffic), res_(res) {}

  /// One attempt: records the message (lost messages still consume
  /// bandwidth) and reports whether it was delivered. `extra_bytes`
  /// bills non-posting payload (sketches, key lists) per attempt.
  SendOutcome Send(PeerId src, PeerId dst, MessageKind kind,
                   uint64_t postings, uint64_t hops, uint64_t salt,
                   uint64_t extra_bytes = 0) const;

  /// Bounded retry with exponential backoff; updates PeerHealth. Query
  /// path: a round trip that exhausts the retry budget fails over or
  /// degrades. When `budget` is non-null every injected-latency and
  /// backoff tick is charged against it, and a retry whose backoff
  /// drains the budget is abandoned (deadline_exhausted set; PeerHealth
  /// is NOT penalized — giving up is not evidence of peer failure). An
  /// unlimited budget (or an inactive injector, which accrues zero
  /// ticks) never binds.
  SendOutcome SendReliable(PeerId src, PeerId dst, MessageKind kind,
                           uint64_t postings, uint64_t hops, uint64_t salt,
                           uint64_t extra_bytes = 0,
                           DeadlineBudget* budget = nullptr) const;

  /// Barrier-reliable: delivery is guaranteed unless `dst` is hard-dead
  /// (the level barrier stands in for an ack/timeout protocol), but only
  /// up to kMaxSendAttempts message records are charged — the tail of a long
  /// unlucky streak is absorbed by the barrier redelivery, which its
  /// caller records separately.
  SendOutcome SendAssured(PeerId src, PeerId dst, MessageKind kind,
                          uint64_t postings, uint64_t hops,
                          uint64_t salt) const;

  /// True when the destination is hard-dead (no point attempting).
  bool PeerDead(PeerId dst) const {
    return res_.injector != nullptr && res_.injector->PeerDead(dst);
  }

  const Resilience& resilience() const { return res_; }

 private:
  bool Attempt(PeerId src, PeerId dst, MessageKind kind, uint64_t postings,
               uint64_t hops, uint64_t salt, uint32_t attempt,
               uint64_t* latency_ticks, uint64_t extra_bytes = 0) const;

  const TrafficRecorder* traffic_;
  Resilience res_;  // by value: call sites may pass a temporary bundle
};

}  // namespace hdk::net

#endif  // HDKP2P_NET_FAULT_H_
