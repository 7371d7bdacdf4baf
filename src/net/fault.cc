#include "net/fault.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/hash.h"

namespace hdk::net {

namespace {

// Distinct decision streams so a message's loss and latency draws are
// independent.
constexpr uint64_t kLossStream = 0x4c4f5353ULL;     // "LOSS"
constexpr uint64_t kLatencyStream = 0x4c415445ULL;  // "LATE"

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

bool ParseU64(std::string_view s, uint64_t* out) {
  if (s.empty()) return false;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

bool ParseProb(std::string_view s, double* out) {
  if (s.empty()) return false;
  // std::from_chars for double is available in this toolchain, but keep
  // the parse strict: the whole token must be consumed.
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  if (ec != std::errc() || ptr != s.data() + s.size()) return false;
  return *out >= 0.0 && *out < 1.0 && std::isfinite(*out);
}

bool KindFromName(std::string_view name, MessageKind* out) {
  for (size_t k = 0; k < kNumMessageKinds; ++k) {
    const auto kind = static_cast<MessageKind>(k);
    if (MessageKindName(kind) == name) {
      *out = kind;
      return true;
    }
  }
  return false;
}

std::string FormatProb(double p) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", p);
  return buf;
}

}  // namespace

Result<FaultPlan> FaultPlan::Parse(std::string_view spec) {
  FaultPlan plan;
  std::string_view rest = Trim(spec);
  while (!rest.empty()) {
    const size_t comma = rest.find(',');
    std::string_view item = Trim(rest.substr(0, comma));
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    if (item.empty()) continue;
    const size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("FaultPlan: expected key=value, got '" +
                                     std::string(item) + "'");
    }
    const std::string_view key = Trim(item.substr(0, eq));
    const std::string_view value = Trim(item.substr(eq + 1));
    if (key == "seed") {
      if (!ParseU64(value, &plan.seed)) {
        return Status::InvalidArgument("FaultPlan: bad seed '" +
                                       std::string(value) + "'");
      }
    } else if (key == "loss") {
      if (!ParseProb(value, &plan.loss)) {
        return Status::InvalidArgument(
            "FaultPlan: loss must be in [0, 1), got '" + std::string(value) +
            "'");
      }
    } else if (key.starts_with("loss.")) {
      MessageKind kind;
      if (!KindFromName(key.substr(5), &kind)) {
        return Status::InvalidArgument("FaultPlan: unknown message kind '" +
                                       std::string(key.substr(5)) + "'");
      }
      double p = 0.0;
      if (!ParseProb(value, &p)) {
        return Status::InvalidArgument(
            "FaultPlan: loss must be in [0, 1), got '" + std::string(value) +
            "'");
      }
      plan.kind_loss[static_cast<size_t>(kind)] = p;
    } else if (key == "latency") {
      uint64_t t = 0;
      if (!ParseU64(value, &t) || t > UINT32_MAX) {
        return Status::InvalidArgument("FaultPlan: bad latency '" +
                                       std::string(value) + "'");
      }
      plan.max_latency_ticks = static_cast<uint32_t>(t);
    } else if (key.starts_with("latency.")) {
      MessageKind kind;
      if (!KindFromName(key.substr(8), &kind)) {
        return Status::InvalidArgument("FaultPlan: unknown message kind '" +
                                       std::string(key.substr(8)) + "'");
      }
      uint64_t t = 0;
      if (!ParseU64(value, &t) || t > UINT32_MAX) {
        return Status::InvalidArgument("FaultPlan: bad latency '" +
                                       std::string(value) + "'");
      }
      plan.kind_latency[static_cast<size_t>(kind)] = static_cast<int64_t>(t);
    } else if (key.starts_with("latency@")) {
      uint64_t peer = 0;
      uint64_t t = 0;
      if (!ParseU64(key.substr(8), &peer) || peer >= kInvalidPeer ||
          !ParseU64(value, &t) || t > UINT32_MAX) {
        return Status::InvalidArgument(
            "FaultPlan: latency@ wants latency@<peer>=<ticks>, got '" +
            std::string(key) + "=" + std::string(value) + "'");
      }
      // Last write wins so a spec can override an earlier entry.
      PeerLatency entry{static_cast<PeerId>(peer), static_cast<uint32_t>(t)};
      bool replaced = false;
      for (PeerLatency& pl : plan.peer_latency) {
        if (pl.peer == entry.peer) {
          pl = entry;
          replaced = true;
          break;
        }
      }
      if (!replaced) plan.peer_latency.push_back(entry);
    } else if (key == "kill") {
      const size_t at = value.find('@');
      ScriptedDeath death;
      uint64_t peer = 0;
      if (at == std::string_view::npos ||
          !ParseU64(value.substr(0, at), &peer) || peer >= kInvalidPeer ||
          !ParseU64(value.substr(at + 1), &death.after_messages)) {
        return Status::InvalidArgument(
            "FaultPlan: kill wants <peer>@<messages>, got '" +
            std::string(value) + "'");
      }
      death.peer = static_cast<PeerId>(peer);
      plan.deaths.push_back(death);
    } else {
      return Status::InvalidArgument("FaultPlan: unknown key '" +
                                     std::string(key) + "'");
    }
  }
  return plan;
}

std::string FaultPlan::ToString() const {
  std::string out = "seed=" + std::to_string(seed);
  if (loss > 0.0) out += ",loss=" + FormatProb(loss);
  for (size_t k = 0; k < kNumMessageKinds; ++k) {
    if (kind_loss[k] >= 0.0) {
      out += ",loss." +
             std::string(MessageKindName(static_cast<MessageKind>(k))) + "=" +
             FormatProb(kind_loss[k]);
    }
  }
  if (max_latency_ticks > 0) {
    out += ",latency=" + std::to_string(max_latency_ticks);
  }
  for (size_t k = 0; k < kNumMessageKinds; ++k) {
    if (kind_latency[k] >= 0) {
      out += ",latency." +
             std::string(MessageKindName(static_cast<MessageKind>(k))) + "=" +
             std::to_string(kind_latency[k]);
    }
  }
  for (const PeerLatency& pl : peer_latency) {
    out += ",latency@" + std::to_string(pl.peer) + "=" +
           std::to_string(pl.max_ticks);
  }
  for (const ScriptedDeath& d : deaths) {
    out += ",kill=" + std::to_string(d.peer) + "@" +
           std::to_string(d.after_messages);
  }
  return out;
}

void FaultInjector::Install(FaultPlan plan) {
  plan_ = std::move(plan);
  // Scripted "dead from message 0" peers die immediately; later deaths
  // trigger from CountMessageTo.
  size_t max_peer = 0;
  for (const ScriptedDeath& d : plan_.deaths) {
    max_peer = std::max(max_peer, static_cast<size_t>(d.peer) + 1);
  }
  EnsurePeers(max_peer);
  for (const ScriptedDeath& d : plan_.deaths) {
    if (d.after_messages == 0) {
      dead_.At(d.peer).store(true, std::memory_order_release);
    }
  }
  bool any_dead = false;
  for (size_t p = 0; p < dead_.size(); ++p) {
    any_dead |= PeerDead(static_cast<PeerId>(p));
  }
  active_.store(plan_.active() || any_dead, std::memory_order_release);
}

uint64_t FaultInjector::DecisionHash(uint64_t stream, MessageKind kind,
                                     PeerId src, PeerId dst, uint64_t salt,
                                     uint32_t attempt) const {
  uint64_t h = Mix64(plan_.seed ^ stream);
  h = HashCombine(h, static_cast<uint64_t>(kind));
  h = HashCombine(h, (static_cast<uint64_t>(src) << 32) | dst);
  h = HashCombine(h, salt);
  h = HashCombine(h, attempt);
  return Mix64(h);
}

bool FaultInjector::Lost(MessageKind kind, PeerId src, PeerId dst,
                         uint64_t salt, uint32_t attempt) const {
  const double p = plan_.LossFor(kind);
  if (p <= 0.0) return false;
  const uint64_t h = DecisionHash(kLossStream, kind, src, dst, salt, attempt);
  // h is hash-uniform over [0, 2^64); compare against p * 2^64. The
  // double ldexp product is exact enough for fault probabilities.
  return static_cast<double>(h) < std::ldexp(p, 64);
}

uint32_t FaultInjector::LatencyTicks(MessageKind kind, PeerId src, PeerId dst,
                                     uint64_t salt, uint32_t attempt) const {
  const uint32_t max = plan_.MaxLatencyFor(kind, dst);
  if (max == 0) return 0;
  const uint64_t h =
      DecisionHash(kLatencyStream, kind, src, dst, salt, attempt);
  return static_cast<uint32_t>(h % (static_cast<uint64_t>(max) + 1));
}

void FaultInjector::KillPeer(PeerId peer) {
  EnsurePeers(static_cast<size_t>(peer) + 1);
  dead_.At(peer).store(true, std::memory_order_release);
  active_.store(true, std::memory_order_release);
}

void FaultInjector::RevivePeer(PeerId peer) {
  if (peer < dead_.size()) {
    dead_.At(peer).store(false, std::memory_order_release);
  }
}

void FaultInjector::CountMessageTo(PeerId dst) {
  if (plan_.deaths.empty()) return;
  const uint64_t arrived =
      arrivals_.At(dst).fetch_add(1, std::memory_order_acq_rel) + 1;
  for (const ScriptedDeath& d : plan_.deaths) {
    if (d.peer == dst && d.after_messages > 0 && arrived >= d.after_messages) {
      dead_.At(dst).store(true, std::memory_order_release);
    }
  }
}

void FaultInjector::OnPeerRemoved(PeerId peer) {
  dead_.Erase(peer);
  arrivals_.Erase(peer);
  // Scripted deaths address pre-renumbering ids; compact them the same
  // way the overlay renumbers (drop the departed peer, shift the rest).
  std::vector<ScriptedDeath> kept;
  kept.reserve(plan_.deaths.size());
  for (ScriptedDeath d : plan_.deaths) {
    if (d.peer == peer) continue;
    if (d.peer > peer) --d.peer;
    kept.push_back(d);
  }
  plan_.deaths = std::move(kept);
  // Per-peer latency overrides address ids the same way.
  std::vector<PeerLatency> kept_latency;
  kept_latency.reserve(plan_.peer_latency.size());
  for (PeerLatency pl : plan_.peer_latency) {
    if (pl.peer == peer) continue;
    if (pl.peer > peer) --pl.peer;
    kept_latency.push_back(pl);
  }
  plan_.peer_latency = std::move(kept_latency);
}

void FaultInjector::EnsurePeers(size_t n) {
  dead_.Grow(n);
  arrivals_.Grow(n);
}

bool Channel::Attempt(PeerId src, PeerId dst, MessageKind kind,
                      uint64_t postings, uint64_t hops, uint64_t salt,
                      uint32_t attempt, uint64_t* latency_ticks,
                      uint64_t extra_bytes) const {
  traffic_->Record(src, dst, kind, postings, hops, extra_bytes);
  const FaultInjector* inj = res_.injector;
  if (inj == nullptr || !inj->active()) return true;
  res_.injector->CountMessageTo(dst);
  if (inj->PeerDead(dst)) return false;
  if (inj->Lost(kind, src, dst, salt, attempt)) return false;
  *latency_ticks += inj->LatencyTicks(kind, src, dst, salt, attempt);
  return true;
}

SendOutcome Channel::Send(PeerId src, PeerId dst, MessageKind kind,
                          uint64_t postings, uint64_t hops, uint64_t salt,
                          uint64_t extra_bytes) const {
  SendOutcome out;
  out.delivered = Attempt(src, dst, kind, postings, hops, salt, 0,
                          &out.latency_ticks, extra_bytes);
  return out;
}

SendOutcome Channel::SendReliable(PeerId src, PeerId dst, MessageKind kind,
                                  uint64_t postings, uint64_t hops,
                                  uint64_t salt, uint64_t extra_bytes,
                                  DeadlineBudget* budget) const {
  SendOutcome out;
  for (uint32_t attempt = 0; attempt < kMaxSendAttempts; ++attempt) {
    if (attempt > 0) {
      if (budget != nullptr && budget->exhausted()) {
        // The clock ran out before this retry could fire: abandon the
        // send — the caller returns a partial, explicitly-degraded
        // answer instead of retrying past the deadline.
        out.deadline_exhausted = true;
        break;
      }
      ++out.retries;
      const uint64_t backoff = kBackoffBaseTicks << (attempt - 1);
      out.latency_ticks += backoff;
      if (budget != nullptr) budget->Charge(backoff);
    }
    const uint64_t before = out.latency_ticks;
    if (Attempt(src, dst, kind, postings, hops, salt, attempt,
                &out.latency_ticks, extra_bytes)) {
      // The leg that crosses the deadline still completes (its answer is
      // used); the budget saturates and everything AFTER it degrades.
      if (budget != nullptr) budget->Charge(out.latency_ticks - before);
      out.delivered = true;
      break;
    }
    // A hard-dead destination fails every attempt; stop burning retries.
    if (PeerDead(dst)) break;
  }
  if (res_.health != nullptr && !out.deadline_exhausted) {
    if (out.delivered) {
      res_.health->RecordSuccess(dst);
    } else {
      res_.health->RecordFailure(dst);
    }
  }
  return out;
}

SendOutcome Channel::SendAssured(PeerId src, PeerId dst, MessageKind kind,
                                 uint64_t postings, uint64_t hops,
                                 uint64_t salt) const {
  SendOutcome out;
  if (PeerDead(dst)) {
    // One recorded attempt documents the try; the peer is unreachable.
    Attempt(src, dst, kind, postings, hops, salt, 0, &out.latency_ticks);
    return out;
  }
  for (uint32_t attempt = 0; attempt < kMaxSendAttempts; ++attempt) {
    if (attempt > 0) {
      ++out.retries;
      out.latency_ticks += kBackoffBaseTicks << (attempt - 1);
    }
    if (Attempt(src, dst, kind, postings, hops, salt, attempt,
                &out.latency_ticks)) {
      out.delivered = true;
      return out;
    }
    if (PeerDead(dst)) return out;  // died mid-burst (scripted death)
  }
  // Retry budget exhausted against a LIVE peer: the level barrier stands
  // in for the ack protocol, so the message still arrives — the caller's
  // redelivery queue records the final delivery.
  return out;
}

}  // namespace hdk::net
