#include "hdk/candidate_builder.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <ranges>
#include <span>

#include "hdk/key_table.h"
#include "text/window.h"

namespace hdk::hdk {

namespace {

// Incremental posting-list accumulator: documents are scanned in ascending
// DocId order, so postings can be appended and flushed per document.
struct Accum {
  // Candidate validity under the all-sub-keys-NDK check; computed once on
  // first formation.
  bool valid = true;
  DocId current_doc = kInvalidDoc;
  uint32_t current_tf = 0;
  uint32_t current_len = 0;
  std::vector<index::Posting> postings;

  void Touch(DocId doc, uint32_t doc_len) {
    if (current_doc != doc) {
      FlushDoc();
      current_doc = doc;
      current_len = doc_len;
      current_tf = 0;
    }
    ++current_tf;
  }

  void FlushDoc() {
    if (current_doc != kInvalidDoc && current_tf > 0) {
      postings.push_back(
          index::Posting{current_doc, current_tf, current_len});
    }
    current_tf = 0;
  }
};

// Verdict bits of one term set, cached per scan.
constexpr uint8_t kNdk = 1;    // expandable (a single) or a known NDK
constexpr uint8_t kFresh = 2;  // one of the delta scan's fresh facts

// Per-scan cache of oracle verdicts, keyed by interned term set: the
// oracle (and the delta of a delta scan) is frozen for the lifetime of
// one candidate scan (knowledge updates arrive only after EndLevel), so
// each distinct gate pair and sub-key consults the oracle — and builds a
// TermKey with its canonical hash — exactly once; every repeat is one
// flat probe by the precomputed commutative set hash.
class NdkVerdictCache {
 public:
  NdkVerdictCache(const NdkOracle& oracle, const OracleDelta* delta)
      : oracle_(oracle), delta_(delta) {}

  // Verdict bits of a canonical term set: kNdk is IsExpandableTerm for
  // singles and IsNdk otherwise; kFresh (delta scans only) is
  // FreshTerm / FreshNdk. `set_hash` must equal SetHashOf(sorted_terms).
  uint8_t Verdict(uint64_t set_hash, std::span<const TermId> sorted_terms) {
    bool inserted = false;
    const KeyId id = table_.Intern(set_hash, sorted_terms, &inserted);
    if (inserted) {
      const bool single = sorted_terms.size() == 1;
      const TermKey& key = table_.key(id);
      uint8_t v = (single ? oracle_.IsExpandableTerm(sorted_terms[0])
                          : oracle_.IsNdk(key))
                      ? kNdk
                      : 0;
      if (delta_ != nullptr && (single ? delta_->FreshTerm(sorted_terms[0])
                                       : delta_->FreshNdk(key))) {
        v |= kFresh;
      }
      verdicts_.push_back(v);
    }
    return verdicts_[id];
  }

 private:
  const NdkOracle& oracle_;
  const OracleDelta* delta_;
  KeyTable table_;
  std::vector<uint8_t> verdicts_;  // parallel to table_ ids
};

// The flat KeyId -> Accum accumulator of one candidate scan: candidates
// are interned by their incremental set hash (no TermKey construction and
// no canonical-hash chain on repeat formations) and their posting-list
// accumulators live in one dense vector indexed by KeyId. One instance is
// reused across every position and document of the scan.
class CandidateAccum {
 public:
  explicit CandidateAccum(size_t expected_candidates) {
    if (expected_candidates > 0) {
      table_.reserve(expected_candidates);
      accums_.reserve(expected_candidates);
    }
  }

  // The accumulator of `sorted_terms`, created on first formation.
  // `inserted` tells the caller to run the once-per-candidate validity
  // check. `set_hash` must equal SetHashOf(sorted_terms).
  Accum& GetOrCreate(uint64_t set_hash, std::span<const TermId> sorted_terms,
                     bool* inserted) {
    const KeyId id = table_.Intern(set_hash, sorted_terms, inserted);
    if (*inserted) accums_.emplace_back();
    return accums_[id];
  }

  // Flushes every accumulator and emits the candidate map (valid,
  // non-empty candidates only) in first-formation order.
  KeyMap<index::PostingList> Take() {
    KeyMap<index::PostingList> out;
    out.reserve(table_.size());
    for (KeyId id = 0; id < table_.size(); ++id) {
      Accum& accum = accums_[id];
      if (!accum.valid) continue;
      accum.FlushDoc();
      if (accum.postings.empty()) continue;
      out.try_emplace(table_.key(id),
                      index::PostingList(std::move(accum.postings)));
    }
    return out;
  }

 private:
  KeyTable table_;
  std::vector<Accum> accums_;  // parallel to table_ ids
};

// Calls pred(sub_hash, sub) on each (s-1)-sub-key of `candidate`, hashed
// incrementally (the candidate's set hash minus one term mix), and
// returns true as soon as one call does.
template <typename Pred>
bool AnySubKey(std::span<const TermId> candidate, uint64_t cand_hash,
               Pred pred) {
  std::array<TermId, TermKey::kMaxTerms> buf;
  for (size_t drop = 0; drop < candidate.size(); ++drop) {
    size_t n = 0;
    for (size_t i = 0; i < candidate.size(); ++i) {
      if (i != drop) buf[n++] = candidate[i];
    }
    const uint64_t sub_hash = cand_hash - TermSetHash(candidate[drop]);
    if (pred(sub_hash, std::span<const TermId>(buf.data(), n))) return true;
  }
  return false;
}

// Validates the intrinsic-discriminativeness precondition for a candidate:
// every (s-1)-sub-key must be a known NDK. By df anti-monotonicity this
// implies that ALL proper sub-keys are non-discriminative.
bool AllSubKeysNdk(const TermKey& candidate, const NdkOracle& oracle) {
  if (candidate.size() == 1) return true;
  for (uint32_t i = 0; i < candidate.size(); ++i) {
    TermKey sub = candidate.DropTerm(i);
    if (sub.size() == 1) {
      if (!oracle.IsExpandableTerm(sub.term(0))) return false;
    } else if (!oracle.IsNdk(sub)) {
      return false;
    }
  }
  return true;
}

// The delta scan's position prefilter. A new level-s event at position p
// uses a fresh fact, and every fact it can use lies inside the window
// [p-w+1, p]: a fresh single (the trigger or a term of the enumeration
// sub-key) or every term of one fresh NDK of size 2 (a gate pair, s >= 3)
// or s-1 (a sub-key of the candidate). Mark lists exactly the positions
// whose window holds one of those, tracking the last position of each
// fresh key's terms, stamped per document (no per-document reset).
class FreshWindowFilter {
 public:
  FreshWindowFilter(uint32_t s, uint32_t window, const OracleDelta& delta)
      : singles_(delta.terms), w_(window) {
    first_slot_.push_back(0);
    if (s >= 3) {
      for (const TermKey& key : delta.ndks) {
        if (key.size() != 2 && key.size() != s - 1) continue;
        const uint32_t index = static_cast<uint32_t>(first_slot_.size() - 1);
        for (TermId t : key.terms()) {
          slots_of_[t].push_back(static_cast<uint32_t>(key_of_slot_.size()));
          key_of_slot_.push_back(index);
        }
        first_slot_.push_back(static_cast<uint32_t>(key_of_slot_.size()));
      }
    }
    last_pos_.assign(key_of_slot_.size(), -1);
    stamp_.assign(key_of_slot_.size(), 0);
  }

  // True when no fresh fact can make a level-s event new.
  bool empty() const { return singles_.empty() && key_of_slot_.empty(); }

  // Fills `active` with the positions of `tokens` whose window holds a
  // fresh single or a whole fresh key, in ascending order.
  void Mark(std::span<const TermId> tokens, std::vector<size_t>* active) {
    ++serial_;
    active->clear();
    int64_t active_until = -1;  // last position whose window holds one
    for (size_t i = 0; i < tokens.size(); ++i) {
      const TermId t = tokens[i];
      const int64_t pos = static_cast<int64_t>(i);
      if (singles_.count(t) > 0) {
        active_until = std::max(active_until, pos + w_ - 1);
      }
      auto slots = slots_of_.find(t);
      if (slots != slots_of_.end()) {
        for (uint32_t slot : slots->second) {
          stamp_[slot] = serial_;
          last_pos_[slot] = pos;
          // The key is whole in the window ending at pos iff each of its
          // terms occurred at or after pos-w+1; windows ending up to
          // (earliest of those) + w - 1 still hold all of them.
          const uint32_t key = key_of_slot_[slot];
          int64_t earliest = pos;
          bool whole = true;
          for (uint32_t j = first_slot_[key]; j < first_slot_[key + 1]; ++j) {
            if (stamp_[j] != serial_) {
              whole = false;
              break;
            }
            earliest = std::min(earliest, last_pos_[j]);
          }
          if (whole && pos - earliest <= w_ - 1) {
            active_until = std::max(active_until, earliest + w_ - 1);
          }
        }
      }
      if (pos <= active_until) active->push_back(i);
    }
  }

 private:
  const TermIdSet& singles_;
  const int64_t w_;
  // One slot per (fresh key, term): key k owns slots
  // [first_slot_[k], first_slot_[k+1]).
  FlatMap<TermId, std::vector<uint32_t>, IdHasher> slots_of_;
  std::vector<uint32_t> key_of_slot_;
  std::vector<uint32_t> first_slot_;
  std::vector<int64_t> last_pos_;  // per slot, valid when stamped
  std::vector<uint32_t> stamp_;    // per slot: document serial
  uint32_t serial_ = 0;
};

// The level-s window walk, shared by the full scan (kDelta false: every
// position of every document) and the delta scan (kDelta true: only the
// positions `filter` marks, and only the events that use a fresh fact of
// `delta`). Every window subset is hashed incrementally from its parent
// (one add per extension), repeated formations and oracle probes are
// single flat-table lookups, and the per-candidate accumulators live
// densely by KeyId. The enumeration order, the oracle answers and the
// per-event accumulation are those of the historical unordered_map walk,
// so the full scan's output is candidate-for-candidate identical to it.
template <bool kDelta, typename Docs>
KeyMap<index::PostingList> WalkLevel(uint32_t s, uint32_t window,
                                     const corpus::DocumentStore& store,
                                     const Docs& docs,
                                     const NdkOracle& oracle,
                                     const OracleDelta* delta,
                                     FreshWindowFilter* filter,
                                     CandidateBuildStats* stats,
                                     size_t expected_candidates) {
  CandidateAccum accums(expected_candidates);
  NdkVerdictCache cache(oracle, delta);
  text::WindowTail tail(window);
  std::vector<TermId> pool;  // eligible tail terms compatible with new term
  std::vector<uint64_t> pool_mix;  // TermSetHash of each pool term
  // Delta scans: per pool term, whether it is a fresh single or forms a
  // fresh gate pair with the trigger; and the positions to enumerate.
  std::vector<char> pool_fresh;
  std::vector<size_t> active;
  std::array<TermId, TermKey::kMaxTerms> sub_buf;
  std::array<TermId, TermKey::kMaxTerms> cand_buf;
  std::array<TermId, 2> pair_buf;
  const uint32_t k = s - 1;  // enumeration sub-key size
  DocId d = kInvalidDoc;
  uint32_t len = 0;

  // Enumerates every candidate formed by trigger term t at the current
  // position with the tail, then pushes t into the tail.
  auto step = [&](TermId t) {
    const bool eligible = oracle.IsExpandableTerm(t);
    if (eligible && !tail.distinct().empty()) {
      const uint64_t t_mix = TermSetHash(t);
      // Pool = distinct tail terms x such that {x, t} can appear together
      // in a non-discriminative context: for s == 2 the pair {x, t} IS
      // the candidate; for s >= 3, {x, t} being discriminative (or never
      // co-occurring globally) would make any superset redundant, so x
      // must satisfy IsNdk({x, t}) — checked once per distinct pair via
      // the verdict cache.
      pool.clear();
      for (TermId x : tail.distinct()) {
        if (x == t) continue;
        if (s == 2) {
          pool.push_back(x);
          continue;
        }
        pair_buf[0] = std::min(x, t);
        pair_buf[1] = std::max(x, t);
        if (cache.Verdict(TermSetHash(x) + t_mix, pair_buf) & kNdk) {
          pool.push_back(x);
        }
      }
      // Deterministic enumeration order regardless of hash-map internals.
      std::sort(pool.begin(), pool.end());
      pool_mix.resize(pool.size());
      for (size_t i = 0; i < pool.size(); ++i) {
        pool_mix[i] = TermSetHash(pool[i]);
      }
      [[maybe_unused]] bool t_fresh = false;
      if constexpr (kDelta) {
        t_fresh = delta->FreshTerm(t);
        pool_fresh.resize(pool.size());
        for (size_t i = 0; i < pool.size(); ++i) {
          pair_buf[0] = std::min(pool[i], t);
          pair_buf[1] = std::max(pool[i], t);
          pool_fresh[i] =
              delta->FreshTerm(pool[i]) ||
              (s >= 3 && (cache.Verdict(pool_mix[i] + t_mix, pair_buf) &
                          kFresh) != 0);
        }
      }

      // candidate = sub + {t}: sorted insert of t, hash composed from the
      // parent sub-key's hash. A delta scan keeps the event only when it
      // is new: `fresh` covers t, the terms of sub, the gate pairs and sub
      // itself, and at s >= 4 the candidate's other (s-1)-sub-keys (the
      // ones holding t) are checked here.
      auto visit = [&](std::span<const TermId> sub, uint64_t sub_hash,
                       [[maybe_unused]] bool fresh) {
        size_t n = 0;
        size_t i = 0;
        for (; i < sub.size() && sub[i] < t; ++i) cand_buf[n++] = sub[i];
        cand_buf[n++] = t;
        for (; i < sub.size(); ++i) cand_buf[n++] = sub[i];
        const uint64_t cand_hash = sub_hash + t_mix;
        const std::span<const TermId> cand(cand_buf.data(), n);
        if constexpr (kDelta) {
          if (!fresh &&
              (s < 4 || !AnySubKey(cand, cand_hash,
                                   [&](uint64_t h, std::span<const TermId> sk) {
                                     return (cache.Verdict(h, sk) & kFresh) !=
                                            0;
                                   }))) {
            return;
          }
        }

        bool inserted = false;
        Accum& a = accums.GetOrCreate(cand_hash, cand, &inserted);
        if (inserted) {
          a.valid = !AnySubKey(
              cand, cand_hash, [&](uint64_t h, std::span<const TermId> sk) {
                return (cache.Verdict(h, sk) & kNdk) == 0;
              });
          if (!a.valid && stats != nullptr) ++stats->pruned_candidates;
        }
        if (!a.valid) return;
        a.Touch(d, len);
        if (stats != nullptr) ++stats->formations;
      };

      if (k == 1) {
        // s == 2: every pool term forms the pair candidate directly
        // (pool terms are tail survivors, hence expandable by
        // construction).
        for (size_t i = 0; i < pool.size(); ++i) {
          if constexpr (kDelta) {
            if (!t_fresh && !pool_fresh[i]) continue;
          }
          visit(std::span<const TermId>(&pool[i], 1), pool_mix[i], true);
        }
      } else if (pool.size() >= k) {
        // Canonical index-combination walk over strictly increasing
        // tuples ix[0] < ... < ix[k-1]; the sub-key's set hash is the
        // sum of the pool-term mixes, and only known-NDK sub-keys
        // (verdict cache) expand into candidates.
        const uint32_t n = static_cast<uint32_t>(pool.size());
        std::array<uint32_t, TermKey::kMaxTerms> ix;
        for (uint32_t i = 0; i < k; ++i) ix[i] = i;
        while (true) {
          uint64_t sub_hash = 0;
          for (uint32_t i = 0; i < k; ++i) {
            sub_buf[i] = pool[ix[i]];
            sub_hash += pool_mix[ix[i]];
          }
          const std::span<const TermId> sub(sub_buf.data(), k);
          const uint8_t verdict = cache.Verdict(sub_hash, sub);
          if (verdict & kNdk) {
            bool fresh = false;
            if constexpr (kDelta) {
              fresh = t_fresh || (verdict & kFresh) != 0;
              for (uint32_t i = 0; i < k && !fresh; ++i) {
                fresh = pool_fresh[ix[i]] != 0;
              }
            }
            visit(sub, sub_hash, fresh);
          }
          // Advance to the next combination.
          int i = static_cast<int>(k) - 1;
          while (i >= 0 && ix[i] == static_cast<uint32_t>(i) + n - k) --i;
          if (i < 0) break;
          ++ix[i];
          for (uint32_t j = static_cast<uint32_t>(i) + 1; j < k; ++j) {
            ix[j] = ix[j - 1] + 1;
          }
        }
      }
    }
    tail.Push(eligible ? t : kInvalidTerm);
  };

  for (const DocId doc : docs) {
    d = doc;
    std::span<const TermId> tokens = store.Tokens(d);
    len = static_cast<uint32_t>(tokens.size());
    if (stats != nullptr) {
      ++stats->documents_scanned;
      stats->positions_scanned += tokens.size();
    }
    tail.Reset();
    if constexpr (kDelta) {
      // The tail before position p is the w-1 tokens preceding it:
      // between adjacent active positions it advances incrementally,
      // across a gap it is rebuilt from the window start (at most w-1
      // pushes) — either way its state matches a full walk's.
      filter->Mark(tokens, &active);
      size_t next = 0;  // first position not yet pushed into the tail
      for (const size_t p : active) {
        if (p >= next + window) {
          tail.Reset();
          next = p + 1 - window;
        }
        for (; next < p; ++next) {
          const TermId x = tokens[next];
          tail.Push(oracle.IsExpandableTerm(x) ? x : kInvalidTerm);
        }
        step(tokens[p]);
        next = p + 1;
      }
    } else {
      for (TermId t : tokens) step(t);
    }
  }
  return accums.Take();
}

}  // namespace

bool GenerableUnder(const TermKey& key, const NdkOracle& oracle) {
  if (key.size() <= 1) return true;
  for (TermId t : key.terms()) {
    if (!oracle.IsExpandableTerm(t)) return false;
  }
  return AllSubKeysNdk(key, oracle);
}

CandidateBuilder::CandidateBuilder(const HdkParams& params)
    : params_(params) {
  assert(params_.Validate().ok());
  assert(params_.s_max <= TermKey::kMaxTerms);
}

KeyMap<index::PostingList> CandidateBuilder::BuildLevel1(
    const corpus::DocumentStore& store, DocId first, DocId last,
    const TermIdSet& excluded, CandidateBuildStats* stats,
    const TermIdSet* only) const {
  CandidateAccum accums(/*expected_candidates=*/0);
  FlatMap<TermId, uint32_t, IdHasher> tf;  // per-doc, capacity persists
  for (DocId d = first; d < last; ++d) {
    std::span<const TermId> tokens = store.Tokens(d);
    if (stats != nullptr) {
      ++stats->documents_scanned;
      stats->positions_scanned += tokens.size();
    }
    tf.clear();
    for (TermId t : tokens) {
      if (excluded.count(t) > 0) continue;
      ++tf[t];
    }
    const uint32_t len = static_cast<uint32_t>(tokens.size());
    if (stats != nullptr) stats->formations += tf.size();
    for (const auto& [term, count] : tf) {
      if (only != nullptr && only->count(term) == 0) continue;
      bool inserted = false;
      Accum& a = accums.GetOrCreate(TermSetHash(term),
                                    std::span<const TermId>(&term, 1),
                                    &inserted);
      a.current_doc = d;
      a.current_tf = count;
      a.current_len = len;
      a.FlushDoc();
      a.current_doc = kInvalidDoc;
    }
  }
  return accums.Take();
}

KeyMap<index::PostingList> CandidateBuilder::BuildLevel(
    uint32_t s, const corpus::DocumentStore& store, DocId first, DocId last,
    const NdkOracle& oracle, CandidateBuildStats* stats,
    size_t expected_candidates) const {
  assert(s >= 2);
  assert(s <= params_.s_max);
  return WalkLevel<false>(s, params_.window, store,
                          std::views::iota(first, last), oracle,
                          /*delta=*/nullptr, /*filter=*/nullptr, stats,
                          expected_candidates);
}

KeyMap<index::PostingList> CandidateBuilder::BuildLevelDelta(
    uint32_t s, const corpus::DocumentStore& store,
    std::span<const DocId> docs, const NdkOracle& oracle,
    const OracleDelta& delta, CandidateBuildStats* stats) const {
  assert(s >= 2);
  if (delta.empty() || docs.empty()) return {};
  FreshWindowFilter filter(s, params_.window, delta);
  if (filter.empty()) return {};
  return WalkLevel<true>(s, params_.window, store, docs, oracle, &delta,
                         &filter, stats, /*expected_candidates=*/0);
}

}  // namespace hdk::hdk
