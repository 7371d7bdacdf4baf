#include "dht/overlay.h"

#include <algorithm>
#include <cassert>

#include "common/hash.h"

namespace hdk::dht {

HolderSet ReplicaHolders(const Overlay& overlay, uint64_t key_hash,
                         uint32_t replication) {
  HolderSet holders;
  holders.push_back(overlay.Responsible(key_hash));
  const size_t want =
      std::min<size_t>(std::max<uint32_t>(replication, 1), overlay.num_peers());
  uint64_t h = key_hash;
  // Salted re-hash walk; the draw cap bounds the walk when the overlay
  // has few peers and the hash keeps landing on holders we already have.
  for (size_t draw = 0; holders.size() < want && draw < kMaxReplicaDraws;
       ++draw) {
    h = Mix64(h ^ 0x5245504c49434133ULL);  // "REPLICA3"
    const PeerId candidate = overlay.Responsible(h);
    if (std::find(holders.begin(), holders.end(), candidate) ==
        holders.end()) {
      holders.push_back(candidate);
    }
  }
  return holders;
}

size_t Overlay::Route(PeerId from, RingId key,
                      std::vector<PeerId>* path) const {
  assert(from < num_peers());
  size_t hops = 0;
  PeerId current = from;
  // A correct structured overlay converges in O(log N); allowing a full
  // ring traversal on top catches routing-loop bugs without tripping on
  // degenerate fallback chains.
  const size_t kMaxHops = num_peers() + 4 * 64 + 8;
  while (hops < kMaxHops) {
    PeerId next = NextHop(current, key);
    if (next == current) {
      if (path != nullptr) path->push_back(current);
      return hops;
    }
    if (path != nullptr) path->push_back(current);
    current = next;
    ++hops;
  }
  assert(false && "routing did not converge");
  return hops;
}

}  // namespace hdk::dht
