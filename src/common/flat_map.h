// Flat open-addressing hash containers for the hot paths.
//
// std::unordered_map's node-based buckets cost one heap allocation and at
// least two dependent cache misses per upsert — measurable at the scale of
// the candidate-generation and global-index loops, which perform one
// lookup per window co-occurrence event. FlatMap/FlatSet replace them
// where it matters:
//
//   * DENSE STORAGE: entries live contiguously in insertion order in one
//     vector; a separate open-addressing index of (hash, position) slots
//     — linear probing, power-of-two capacity — maps keys to positions.
//     Iteration is a linear walk over the dense vector, and its order is
//     the (deterministic) insertion order, not a hash-dependent bucket
//     order.
//   * CACHED HASHES: the index keeps each entry's full 64-bit hash, so a
//     rehash never touches the keys (tombstone-free: deletion
//     backward-shifts the probe chain instead of leaving tombstones) and
//     long-lived tables (the global index's key tables) never
//     re-hash a TermKey's term array. `hash_at(i)` exposes the cached
//     hash so call sites can carry it to the next table (shard routing,
//     DHT placement) instead of recomputing it.
//   * HETEROGENEOUS LOOKUP BY PRECOMPUTED HASH: the *_hashed entry points
//     accept a caller-supplied hash, so a hash computed once per key can
//     drive every table the key passes through.
//
// Semantics differences from std::unordered_map, relied upon by callers:
//   * erase() swap-removes from the dense vector: iteration order after an
//     erase is still deterministic but no longer pure insertion order.
//   * erase(iterator) returns an iterator to the SAME position (the
//     swapped-in element), which is the correct continuation for
//     erase-while-iterating loops over the dense storage.
//   * Inserting may move the dense vector: REFERENCES and iterators are
//     invalidated by rehash AND by growth of the entry vector (unordered_map
//     only invalidates iterators). No current call site holds a reference
//     across an insert into the same table.
//   * clear() keeps the allocated capacity — tables that fill, drain and
//     refill per wave (the global index's pending buffers) never re-grow.
#ifndef HDKP2P_COMMON_FLAT_MAP_H_
#define HDKP2P_COMMON_FLAT_MAP_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/types.h"

namespace hdk {

/// Mixing hasher for integral ids (TermId, DocId, RingId): identity
/// hashes cluster badly under power-of-two masking, so mix. Returns the
/// full 64 bits — the flat tables cache hashes at uint64_t width and
/// hash-carrying call sites may reuse them, so hashers must not truncate
/// through size_t.
struct IdHasher {
  uint64_t operator()(uint64_t x) const { return Mix64(x); }
};

namespace internal {

/// The shared open-addressing index: maps 64-bit hashes to positions in a
/// dense entry vector. Positions are stored +1 so 0 means "empty slot".
class FlatIndex {
 public:
  struct Slot {
    uint64_t hash = 0;
    uint32_t pos_plus1 = 0;
  };

  bool empty_index() const { return slots_.empty(); }
  size_t capacity() const { return slots_.size(); }

  /// First slot of the probe chain for `hash`.
  size_t Home(uint64_t hash) const { return hash & mask_; }
  size_t Next(size_t i) const { return (i + 1) & mask_; }
  const Slot& slot(size_t i) const { return slots_[i]; }

  /// Finds the slot holding (hash, matching entry) or the empty slot that
  /// terminates its probe chain. `eq(pos)` says whether the dense entry at
  /// `pos` equals the probed key.
  template <typename Eq>
  size_t FindSlot(uint64_t hash, Eq&& eq) const {
    size_t i = Home(hash);
    while (true) {
      const Slot& s = slots_[i];
      if (s.pos_plus1 == 0) return i;
      if (s.hash == hash && eq(s.pos_plus1 - 1)) return i;
      i = Next(i);
    }
  }

  void Place(size_t slot, uint64_t hash, size_t pos) {
    slots_[slot].hash = hash;
    slots_[slot].pos_plus1 = static_cast<uint32_t>(pos + 1);
  }

  /// Repoints the slot that maps `hash` to dense position `from` at `to`
  /// (used when a swap-remove moves the last entry into the hole).
  void Repoint(uint64_t hash, size_t from, size_t to) {
    size_t i = Home(hash);
    while (true) {
      Slot& s = slots_[i];
      assert(s.pos_plus1 != 0 && "repointed entry must be indexed");
      if (s.hash == hash && s.pos_plus1 == from + 1) {
        s.pos_plus1 = static_cast<uint32_t>(to + 1);
        return;
      }
      i = Next(i);
    }
  }

  /// Tombstone-free deletion: empties `hole` and backward-shifts the
  /// probe chain behind it so every surviving entry stays reachable.
  void EraseSlot(size_t hole) {
    size_t i = hole;
    size_t j = hole;
    while (true) {
      j = Next(j);
      Slot& s = slots_[j];
      if (s.pos_plus1 == 0) break;
      // The element at j may move into the hole at i iff its home slot
      // lies cyclically at-or-before i (otherwise the move would lift it
      // over its own chain start and lose it).
      const size_t home = Home(s.hash);
      if (((j - home) & mask_) >= ((j - i) & mask_)) {
        slots_[i] = s;
        i = j;
      }
    }
    slots_[i] = Slot{};
  }

  /// True when one more entry would push the load factor over 7/8.
  bool NeedsGrowth(size_t entries) const {
    return slots_.empty() || (entries + 1) * 8 > slots_.size() * 7;
  }

  /// Rebuilds the index for `hashes` (the dense entries' cached hashes) at
  /// a power-of-two capacity >= max(2 * want_entries, 16). Never re-hashes
  /// a key: only the cached hashes are consumed.
  void Rebuild(const std::vector<uint64_t>& hashes, size_t want_entries) {
    size_t cap = 16;
    while (cap < 2 * want_entries) cap *= 2;
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    // Each placement lands on a random slot of a table far larger than
    // cache, so the insert loop is bound by dependent cache misses.
    // Prefetching the home slot a fixed distance ahead overlaps those
    // misses; for million-key tables (the snapshot load path rebuilds
    // every index of the global key tables) this is a 2x-3x faster rebuild.
    constexpr size_t kPrefetchAhead = 16;
    const size_t n = hashes.size();
    for (size_t pos = 0; pos < n; ++pos) {
      if (pos + kPrefetchAhead < n) {
        __builtin_prefetch(&slots_[Home(hashes[pos + kPrefetchAhead])], 1, 0);
      }
      size_t i = Home(hashes[pos]);
      while (slots_[i].pos_plus1 != 0) i = Next(i);
      Place(i, hashes[pos], pos);
    }
  }

  void Clear() {
    std::fill(slots_.begin(), slots_.end(), Slot{});
  }

 private:
  std::vector<Slot> slots_;
  size_t mask_ = 0;
};

}  // namespace internal

/// Flat open-addressing hash map. See the file comment for the contract.
template <typename K, typename V, typename Hash = std::hash<K>,
          typename Eq = std::equal_to<K>>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = value_type*;
  using const_iterator = const value_type*;

  FlatMap() = default;

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  iterator begin() { return entries_.data(); }
  iterator end() { return entries_.data() + entries_.size(); }
  const_iterator begin() const { return entries_.data(); }
  const_iterator end() const { return entries_.data() + entries_.size(); }

  /// The i-th entry / its cached hash, in dense-storage order.
  value_type& entry(size_t i) { return entries_[i]; }
  const value_type& entry(size_t i) const { return entries_[i]; }
  uint64_t hash_at(size_t i) const { return hashes_[i]; }

  /// Raw dense-storage views (snapshot wire layout, see store/): the
  /// parallel entry/hash arrays ARE the serialized form of the table.
  const std::vector<value_type>& raw_entries() const { return entries_; }
  const std::vector<uint64_t>& raw_hashes() const { return hashes_; }

  /// Adopts parallel dense arrays wholesale and rebuilds the slot index
  /// from the CACHED hashes in one linear pass — the snapshot load path;
  /// no key is ever re-hashed. Preconditions (snapshot writer guarantees
  /// both): hashes[i] == Hash{}(entries[i].first) and keys are distinct.
  void AdoptRaw(std::vector<value_type> entries,
                std::vector<uint64_t> hashes) {
    assert(entries.size() == hashes.size());
    entries_ = std::move(entries);
    hashes_ = std::move(hashes);
    index_.Rebuild(hashes_, entries_.size());
  }

  void reserve(size_t n) {
    entries_.reserve(n);
    hashes_.reserve(n);
    if (index_.NeedsGrowth(n)) index_.Rebuild(hashes_, n);
  }

  /// Keeps capacity: refill-per-wave tables never re-grow.
  void clear() {
    entries_.clear();
    hashes_.clear();
    index_.Clear();
  }

  iterator find(const K& key) { return find_hashed(HashOf(key), key); }
  const_iterator find(const K& key) const {
    return find_hashed(HashOf(key), key);
  }

  iterator find_hashed(uint64_t hash, const K& key) {
    if (index_.empty_index()) return end();
    const size_t slot = FindSlot(hash, key);
    const auto& s = index_.slot(slot);
    return s.pos_plus1 == 0 ? end() : begin() + (s.pos_plus1 - 1);
  }
  const_iterator find_hashed(uint64_t hash, const K& key) const {
    if (index_.empty_index()) return end();
    const size_t slot = FindSlot(hash, key);
    const auto& s = index_.slot(slot);
    return s.pos_plus1 == 0 ? end() : begin() + (s.pos_plus1 - 1);
  }

  size_t count(const K& key) const { return find(key) != end() ? 1 : 0; }
  bool contains(const K& key) const { return find(key) != end(); }

  V& at(const K& key) {
    iterator it = find(key);
    assert(it != end() && "FlatMap::at: missing key");
    return it->second;
  }
  const V& at(const K& key) const {
    const_iterator it = find(key);
    assert(it != end() && "FlatMap::at: missing key");
    return it->second;
  }

  V& operator[](const K& key) { return try_emplace(key).first->second; }

  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const K& key, Args&&... args) {
    return try_emplace_hashed(HashOf(key), key, std::forward<Args>(args)...);
  }

  /// try_emplace with a caller-computed hash (which MUST equal
  /// Hash{}(key) — it is cached and reused by rehashes and erases).
  template <typename... Args>
  std::pair<iterator, bool> try_emplace_hashed(uint64_t hash, const K& key,
                                               Args&&... args) {
    GrowIfNeeded();
    size_t slot = FindSlot(hash, key);
    if (index_.slot(slot).pos_plus1 != 0) {
      return {begin() + (index_.slot(slot).pos_plus1 - 1), false};
    }
    entries_.emplace_back(std::piecewise_construct,
                          std::forward_as_tuple(key),
                          std::forward_as_tuple(std::forward<Args>(args)...));
    hashes_.push_back(hash);
    index_.Place(slot, hash, entries_.size() - 1);
    return {end() - 1, true};
  }

  /// unordered_map-style emplace/insert: no-op when the key exists.
  template <typename KArg, typename... Args>
  std::pair<iterator, bool> emplace(KArg&& key, Args&&... args) {
    return try_emplace(static_cast<const K&>(key),
                       std::forward<Args>(args)...);
  }
  std::pair<iterator, bool> insert(value_type kv) {
    auto [it, inserted] = try_emplace(kv.first);
    if (inserted) it->second = std::move(kv.second);
    return {it, inserted};
  }

  size_t erase(const K& key) {
    if (index_.empty_index()) return 0;
    const uint64_t hash = HashOf(key);
    const size_t slot = FindSlot(hash, key);
    if (index_.slot(slot).pos_plus1 == 0) return 0;
    EraseAt(slot);
    return 1;
  }

  /// Erases the pointee and returns an iterator to the SAME position —
  /// the swapped-in element — so erase-while-iterating loops visit every
  /// entry exactly once.
  iterator erase(const_iterator it) {
    const size_t pos = static_cast<size_t>(it - begin());
    const size_t slot = FindSlot(hashes_[pos], entries_[pos].first);
    assert(index_.slot(slot).pos_plus1 == pos + 1);
    EraseAt(slot);
    return begin() + pos;
  }

 private:
  uint64_t HashOf(const K& key) const {
    return static_cast<uint64_t>(Hash{}(key));
  }

  size_t FindSlot(uint64_t hash, const K& key) const {
    return index_.FindSlot(
        hash, [&](size_t pos) { return Eq{}(entries_[pos].first, key); });
  }

  void GrowIfNeeded() {
    if (index_.NeedsGrowth(entries_.size())) {
      index_.Rebuild(hashes_, entries_.size() + 1);
    }
  }

  void EraseAt(size_t slot) {
    const size_t pos = index_.slot(slot).pos_plus1 - 1;
    index_.EraseSlot(slot);
    const size_t last = entries_.size() - 1;
    if (pos != last) {
      index_.Repoint(hashes_[last], last, pos);
      entries_[pos] = std::move(entries_[last]);
      hashes_[pos] = hashes_[last];
    }
    entries_.pop_back();
    hashes_.pop_back();
  }

  std::vector<value_type> entries_;
  std::vector<uint64_t> hashes_;  // parallel to entries_
  internal::FlatIndex index_;
};

/// Flat open-addressing hash set — FlatMap's dense-storage design with
/// key-only entries (kept as a parallel implementation rather than a
/// FlatMap<K, Empty> wrapper so set iteration yields plain keys and the
/// dense vector carries no padded pair). The probe/erase mechanics —
/// FindSlot, EraseAt's EraseSlot-then-Repoint order, grow-before-probe —
/// mirror FlatMap's; keep the two in sync when touching either.
template <typename K, typename Hash = std::hash<K>,
          typename Eq = std::equal_to<K>>
class FlatSet {
 public:
  using value_type = K;
  using iterator = const K*;  // set elements are immutable
  using const_iterator = const K*;

  FlatSet() = default;
  FlatSet(std::initializer_list<K> keys) {
    reserve(keys.size());
    for (const K& k : keys) insert(k);
  }

  size_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }

  const_iterator begin() const { return keys_.data(); }
  const_iterator end() const { return keys_.data() + keys_.size(); }

  const K& entry(size_t i) const { return keys_[i]; }
  uint64_t hash_at(size_t i) const { return hashes_[i]; }

  /// Raw dense-storage views / wholesale adoption — same snapshot
  /// contract as FlatMap::raw_entries/raw_hashes/AdoptRaw.
  const std::vector<K>& raw_keys() const { return keys_; }
  const std::vector<uint64_t>& raw_hashes() const { return hashes_; }
  void AdoptRaw(std::vector<K> keys, std::vector<uint64_t> hashes) {
    assert(keys.size() == hashes.size());
    keys_ = std::move(keys);
    hashes_ = std::move(hashes);
    index_.Rebuild(hashes_, keys_.size());
  }

  void reserve(size_t n) {
    keys_.reserve(n);
    hashes_.reserve(n);
    if (index_.NeedsGrowth(n)) index_.Rebuild(hashes_, n);
  }

  void clear() {
    keys_.clear();
    hashes_.clear();
    index_.Clear();
  }

  const_iterator find(const K& key) const {
    return find_hashed(HashOf(key), key);
  }
  const_iterator find_hashed(uint64_t hash, const K& key) const {
    if (index_.empty_index()) return end();
    const size_t slot = FindSlot(hash, key);
    const auto& s = index_.slot(slot);
    return s.pos_plus1 == 0 ? end() : begin() + (s.pos_plus1 - 1);
  }

  size_t count(const K& key) const { return find(key) != end() ? 1 : 0; }
  bool contains(const K& key) const { return find(key) != end(); }
  size_t count_hashed(uint64_t hash, const K& key) const {
    return find_hashed(hash, key) != end() ? 1 : 0;
  }

  std::pair<const_iterator, bool> insert(const K& key) {
    return insert_hashed(HashOf(key), key);
  }
  std::pair<const_iterator, bool> insert_hashed(uint64_t hash,
                                                const K& key) {
    if (index_.NeedsGrowth(keys_.size())) {
      index_.Rebuild(hashes_, keys_.size() + 1);
    }
    size_t slot = FindSlot(hash, key);
    if (index_.slot(slot).pos_plus1 != 0) {
      return {begin() + (index_.slot(slot).pos_plus1 - 1), false};
    }
    keys_.push_back(key);
    hashes_.push_back(hash);
    index_.Place(slot, hash, keys_.size() - 1);
    return {end() - 1, true};
  }

  size_t erase(const K& key) {
    if (index_.empty_index()) return 0;
    const uint64_t hash = HashOf(key);
    const size_t slot = FindSlot(hash, key);
    if (index_.slot(slot).pos_plus1 == 0) return 0;
    EraseAt(slot);
    return 1;
  }

  /// Same-position continuation semantics as FlatMap::erase(iterator).
  const_iterator erase(const_iterator it) {
    const size_t pos = static_cast<size_t>(it - begin());
    const size_t slot = FindSlot(hashes_[pos], keys_[pos]);
    assert(index_.slot(slot).pos_plus1 == pos + 1);
    EraseAt(slot);
    return begin() + pos;
  }

 private:
  uint64_t HashOf(const K& key) const {
    return static_cast<uint64_t>(Hash{}(key));
  }

  size_t FindSlot(uint64_t hash, const K& key) const {
    return index_.FindSlot(hash,
                           [&](size_t pos) { return Eq{}(keys_[pos], key); });
  }

  void EraseAt(size_t slot) {
    const size_t pos = index_.slot(slot).pos_plus1 - 1;
    index_.EraseSlot(slot);
    const size_t last = keys_.size() - 1;
    if (pos != last) {
      index_.Repoint(hashes_[last], last, pos);
      keys_[pos] = std::move(keys_[last]);
      hashes_[pos] = hashes_[last];
    }
    keys_.pop_back();
    hashes_.pop_back();
  }

  std::vector<K> keys_;
  std::vector<uint64_t> hashes_;  // parallel to keys_
  internal::FlatIndex index_;
};

/// The term-id set used on the scan hot paths (vocabulary filters, the
/// NDK oracle's expandable terms, fresh-knowledge deltas).
using TermIdSet = FlatSet<TermId, IdHasher>;

}  // namespace hdk

#endif  // HDKP2P_COMMON_FLAT_MAP_H_
