// TermKey: an indexing key — a set of up to kMaxTerms terms (paper Def. 1).
//
// Keys are kept in canonical form (sorted ascending, no duplicates) so that
// equal term sets compare equal and hash identically, which is what the
// global DHT placement requires.
#ifndef HDKP2P_HDK_KEY_H_
#define HDKP2P_HDK_KEY_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>

#include "common/hash.h"
#include "common/types.h"

namespace hdk::hdk {

/// A set of 1..kMaxTerms terms in canonical (sorted) order.
class TermKey {
 public:
  /// Maximum supported key size. The paper uses s_max = 3; 6 leaves room
  /// for the "larger keys" extension without heap allocation.
  static constexpr uint32_t kMaxTerms = 6;

  /// Empty key (size 0) — only meaningful as a map sentinel.
  TermKey() = default;

  /// Single-term key.
  explicit TermKey(TermId t);

  /// Key from a list of terms; sorts and deduplicates.
  /// Requires the distinct-term count to be <= kMaxTerms.
  TermKey(std::initializer_list<TermId> terms);
  explicit TermKey(std::span<const TermId> terms);

  /// Fast path for terms ALREADY in canonical (ascending, distinct)
  /// order — the hot candidate-generation loops only ever hold sorted
  /// term sets, so they skip the sort/dedup of the checked constructors.
  static TermKey FromSorted(std::span<const TermId> sorted_terms) {
    TermKey key;
    key.size_ = static_cast<uint32_t>(sorted_terms.size());
    for (uint32_t i = 0; i < key.size_; ++i) {
      key.terms_[i] = sorted_terms[i];
      assert(i == 0 || sorted_terms[i - 1] < sorted_terms[i]);
    }
    return key;
  }

  /// Number of terms (the paper's key size s).
  uint32_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// The terms in ascending order.
  std::span<const TermId> terms() const { return {terms_.data(), size_}; }
  TermId term(uint32_t i) const { return terms_[i]; }

  /// True if `t` is one of the key's terms.
  bool Contains(TermId t) const;

  /// True if one of the key's terms is in `terms` (any set type with
  /// count()).
  template <typename TermSet>
  bool ContainsAny(const TermSet& terms) const {
    for (TermId t : this->terms()) {
      if (terms.count(t) > 0) return true;
    }
    return false;
  }

  /// True if every term of `other` is contained in this key.
  bool ContainsAll(const TermKey& other) const;

  /// Returns this key extended with `t` (which must not be contained and
  /// size() must be < kMaxTerms).
  TermKey Extend(TermId t) const;

  /// Returns the sub-key with the term at index `i` removed.
  TermKey DropTerm(uint32_t i) const;

  /// Stable 64-bit identity hash (used for DHT placement).
  uint64_t Hash64() const { return HashTermIds(terms_.data(), size_); }

  /// "{3,17,42}" or, with a renderer, "{alpha,beta}".
  std::string ToString() const;

  bool operator==(const TermKey& other) const {
    if (size_ != other.size_) return false;
    for (uint32_t i = 0; i < size_; ++i) {
      if (terms_[i] != other.terms_[i]) return false;
    }
    return true;
  }

  /// Lexicographic order (size first, then terms) — deterministic
  /// iteration order for experiments.
  bool operator<(const TermKey& other) const;

  /// Hash functor for hash containers. Returns the full 64-bit identity
  /// hash: the flat tables cache it per entry and the hash-carrying call
  /// sites reuse it as the DHT ring id, so it must never be truncated
  /// through size_t (std containers convert on their side).
  struct Hasher {
    uint64_t operator()(const TermKey& k) const { return k.Hash64(); }
  };

 private:
  std::array<TermId, kMaxTerms> terms_{};
  uint32_t size_ = 0;
};

}  // namespace hdk::hdk

#endif  // HDKP2P_HDK_KEY_H_
