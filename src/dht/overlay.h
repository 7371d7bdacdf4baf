// Structured-overlay interface.
//
// The paper's prototype runs on P-Grid [18]; the HDK model itself only
// requires SOME structured overlay ("structured P2P network") mapping keys
// to responsible peers with O(log N) routing. We provide two
// implementations behind this interface — a P-Grid-style binary trie (the
// paper's substrate) and a Chord-style ring — so that the overlay choice
// can be ablated (posting traffic is overlay-independent; hop counts and
// key-space balance differ).
#ifndef HDKP2P_DHT_OVERLAY_H_
#define HDKP2P_DHT_OVERLAY_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace hdk::dht {

/// A structured key-based routing overlay over peers 0..num_peers()-1.
class Overlay {
 public:
  virtual ~Overlay() = default;

  /// The peer responsible for storing `key`.
  virtual PeerId Responsible(RingId key) const = 0;

  /// One greedy routing step: the peer `from` forwards a lookup for `key`
  /// to the returned peer. Returns `from` itself iff `from` is responsible.
  virtual PeerId NextHop(PeerId from, RingId key) const = 0;

  /// Adds one peer to the overlay (network growth experiments).
  virtual Status AddPeer() = 0;

  /// Removes peer `p` from the overlay (churn experiments): its key-space
  /// responsibility is absorbed by the surviving peers and every peer with
  /// an id greater than `p` is renumbered down by one, keeping ids dense
  /// in [0, num_peers()). Fails when `p` is out of range or the overlay
  /// would become empty.
  virtual Status RemovePeer(PeerId p) = 0;

  virtual size_t num_peers() const = 0;

  /// Routes a lookup from `from` to the responsible peer; returns the hop
  /// count (0 when `from` is already responsible). If `path` is non-null
  /// it receives the visited peers including the destination.
  size_t Route(PeerId from, RingId key,
               std::vector<PeerId>* path = nullptr) const;
};

/// The salted re-hash walk of ReplicaHolders draws at most this many
/// candidates, so a holder set never exceeds kMaxReplicaDraws + 1 peers.
inline constexpr size_t kMaxReplicaDraws = 64;

/// The fragment holders of one key, stored inline: the query path looks
/// holders up once per fetched key, and this keeps that off the heap.
class HolderSet {
 public:
  size_t size() const { return size_; }
  PeerId operator[](size_t i) const { return ids_[i]; }
  const PeerId* begin() const { return ids_.data(); }
  const PeerId* end() const { return ids_.data() + size_; }
  PeerId* begin() { return ids_.data(); }
  PeerId* end() { return ids_.data() + size_; }

  void push_back(PeerId peer) {
    assert(size_ < ids_.size());
    ids_[size_++] = peer;
  }

 private:
  std::array<PeerId, kMaxReplicaDraws + 1> ids_{};
  size_t size_ = 0;
};

/// The fragment holders of `key_hash` under `overlay`: the responsible
/// peer first, then `replication - 1` distinct peers derived by salted
/// re-hashing of the placement hash. Deterministic for a fixed overlay —
/// this is THE replica placement: the global index, the anti-entropy
/// reconciler and the snapshot inspector all derive holder sets through
/// this one function.
HolderSet ReplicaHolders(const Overlay& overlay, uint64_t key_hash,
                         uint32_t replication);

}  // namespace hdk::dht

#endif  // HDKP2P_DHT_OVERLAY_H_
