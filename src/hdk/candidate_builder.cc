#include "hdk/candidate_builder.h"

#include <algorithm>
#include <array>
#include <cassert>
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

// Per-scan cache of NDK-oracle verdicts, keyed by interned term set: the
// oracle is frozen for the lifetime of one candidate scan (knowledge
// updates arrive only after EndLevel), so each distinct gate pair and
// sub-key consults the oracle — and builds a TermKey with its canonical
// hash — exactly once; every repeat is one flat probe by the precomputed
// commutative set hash.
class NdkVerdictCache {
 public:
  explicit NdkVerdictCache(const NdkOracle& oracle) : oracle_(oracle) {}

  // Verdict for a canonical term set: IsExpandableTerm for singles,
  // IsNdk otherwise. `set_hash` must equal SetHashOf(sorted_terms).
  bool Check(uint64_t set_hash, std::span<const TermId> sorted_terms) {
    bool inserted = false;
    const KeyId id = table_.Intern(set_hash, sorted_terms, &inserted);
    if (inserted) {
      verdicts_.push_back(
          sorted_terms.size() == 1
              ? oracle_.IsExpandableTerm(sorted_terms[0])
              : oracle_.IsNdk(table_.key(id)));
    }
    return verdicts_[id] != 0;
  }

 private:
  const NdkOracle& oracle_;
  KeyTable table_;
  std::vector<char> verdicts_;  // parallel to table_ ids
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

// The once-per-distinct-candidate Apriori validity check, hashed
// incrementally: every (s-1)-sub-key's set hash is the candidate's hash
// minus one term mix, and its verdict comes from (or fills) the shared
// per-scan cache. Equivalent to AllSubKeysNdk below, term for term.
bool AllSubKeysNdkCached(std::span<const TermId> candidate,
                         uint64_t cand_hash, NdkVerdictCache& cache) {
  if (candidate.size() == 1) return true;
  std::array<TermId, TermKey::kMaxTerms> buf;
  for (size_t drop = 0; drop < candidate.size(); ++drop) {
    size_t n = 0;
    for (size_t i = 0; i < candidate.size(); ++i) {
      if (i != drop) buf[n++] = candidate[i];
    }
    const uint64_t sub_hash = cand_hash - TermSetHash(candidate[drop]);
    if (!cache.Check(sub_hash, std::span<const TermId>(buf.data(), n))) {
      return false;
    }
  }
  return true;
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

// Enumerates all (s-1)-element subsets S of `pool` (distinct eligible tail
// terms) such that S itself is a known NDK, and calls visit(sub, candidate)
// for candidate = S + {new_term}. Pool terms are guaranteed != new_term.
template <typename Visit>
void EnumerateCandidates(const std::vector<TermId>& pool, TermId new_term,
                         uint32_t subset_size, const NdkOracle& oracle,
                         Visit visit) {
  if (pool.size() < subset_size) return;
  // subset_size is s-1 in [1, kMaxTerms-1]; canonical index-combination walk
  // over strictly increasing index tuples ix[0] < ... < ix[k-1].
  const uint32_t k = subset_size;
  const uint32_t n = static_cast<uint32_t>(pool.size());
  std::vector<uint32_t> ix(k);
  for (uint32_t i = 0; i < k; ++i) ix[i] = i;
  while (true) {
    // Build the sub-key S and check it is a known NDK.
    std::array<TermId, TermKey::kMaxTerms> buf;
    for (uint32_t i = 0; i < k; ++i) buf[i] = pool[ix[i]];
    TermKey sub(std::span<const TermId>(buf.data(), k));
    const bool sub_ok = (k == 1) ? oracle.IsExpandableTerm(sub.term(0))
                                 : oracle.IsNdk(sub);
    if (sub_ok) {
      visit(sub, sub.Extend(new_term));
    }
    // Advance to the next combination.
    int i = static_cast<int>(k) - 1;
    while (i >= 0 && ix[i] == static_cast<uint32_t>(i) + n - k) --i;
    if (i < 0) return;
    ++ix[i];
    for (uint32_t j = static_cast<uint32_t>(i) + 1; j < k; ++j) {
      ix[j] = ix[j - 1] + 1;
    }
  }
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

KeyMap<index::PostingList> CandidateBuilder::BuildLevelDelta(
    uint32_t s, const corpus::DocumentStore& store, DocId first, DocId last,
    std::span<const DocId> docs, const NdkOracle& oracle,
    const OracleDelta& delta, CandidateBuildStats* stats) const {
  assert(s >= 2);
  (void)first;
  (void)last;
  if (delta.empty() || docs.empty()) return {};
  if (s == 3) return BuildLevel3Delta(store, docs, oracle, delta, stats);
  if (s > 3) {
    return BuildLevelDeltaGeneral(s, store, docs, oracle, delta, stats);
  }

  // s == 2: only newly-expandable single terms create new pairs, and a
  // new pair's fresh term must lie inside the candidate's window. The
  // walk skips a position in O(1) whenever neither its trigger term nor
  // its tail carries a fresh single — that skip is what makes the delta
  // scan cheap.
  KeyMap<Accum> accums;
  text::WindowTail tail(params_.window);
  std::vector<TermId> pool;

  const TermIdSet& fresh_singles = delta.terms;
  if (fresh_singles.empty()) return {};

  // Ring mirroring the tail (w - 1 positions): per position, whether it
  // carried a fresh single, with a running count.
  std::vector<char> relevant_ring(params_.window - 1, 0);
  size_t ring_pos = 0;
  size_t ring_filled = 0;
  uint32_t singles_in_tail = 0;

  auto visit = [&](const TermKey& candidate, DocId d, uint32_t len) {
    auto [it, inserted] = accums.try_emplace(candidate);
    Accum& a = it->second;
    if (inserted) {
      a.valid = AllSubKeysNdk(candidate, oracle);
      if (!a.valid && stats != nullptr) ++stats->pruned_candidates;
    }
    if (!a.valid) return;
    a.Touch(d, len);
    if (stats != nullptr) ++stats->formations;
  };

  for (DocId d : docs) {
    std::span<const TermId> tokens = store.Tokens(d);
    const uint32_t len = static_cast<uint32_t>(tokens.size());
    tail.Reset();
    std::fill(relevant_ring.begin(), relevant_ring.end(), 0);
    ring_pos = 0;
    ring_filled = 0;
    singles_in_tail = 0;
    if (stats != nullptr) {
      ++stats->documents_scanned;
      stats->positions_scanned += tokens.size();
    }

    for (TermId t : tokens) {
      const bool eligible = oracle.IsExpandableTerm(t);
      const bool t_single = fresh_singles.count(t) > 0;
      if (eligible && !tail.distinct().empty() &&
          (t_single || singles_in_tail > 0)) {
        const bool fresh_t = delta.FreshTerm(t);
        pool.clear();
        for (TermId x : tail.distinct()) {
          if (x != t) pool.push_back(x);
        }
        std::sort(pool.begin(), pool.end());

        // A pair {x, t} is new iff one of its terms became expandable.
        for (TermId x : pool) {
          if (fresh_t || delta.FreshTerm(x)) {
            visit(TermKey{x, t}, d, len);
          }
        }
      }
      tail.Push(eligible ? t : kInvalidTerm);
      // Mirror the tail window for the O(1) relevance skip. Only
      // non-hole (eligible) relevant terms can join candidates.
      const char pushed = eligible && t_single ? 1 : 0;
      if (!relevant_ring.empty()) {
        if (ring_filled == relevant_ring.size()) {
          singles_in_tail -= relevant_ring[ring_pos];
        } else {
          ++ring_filled;
        }
        relevant_ring[ring_pos] = pushed;
        singles_in_tail += pushed;
        ring_pos = (ring_pos + 1) % relevant_ring.size();
      }
    }
  }

  KeyMap<index::PostingList> out;
  for (auto& [key, accum] : accums) {
    if (!accum.valid) continue;
    accum.FlushDoc();
    if (accum.postings.empty()) continue;
    out.emplace(key, index::PostingList(std::move(accum.postings)));
  }
  return out;
}

KeyMap<index::PostingList> CandidateBuilder::BuildLevel3Delta(
    const corpus::DocumentStore& store, std::span<const DocId> docs,
    const NdkOracle& oracle, const OracleDelta& delta,
    CandidateBuildStats* stats) const {
  // A new triple event at trigger position p uses at least one fresh
  // fact, and every such fact puts a fresh single into the window
  // [p-w+1, p] or BOTH terms of one fresh NDK pair into it (a fresh gate
  // {x, t} has x in the tail and t at p; a fresh enumeration sub-key
  // {x1, x2} has both in the tail; a fresh trigger/pool term is a fresh
  // single). So the walk is two-pass per document: a cheap prefilter
  // marks exactly those trigger positions, then the tail/enumeration
  // machinery — the expensive part — runs only there, rebuilding the
  // window tail across gaps. Emitted events (and therefore the candidate
  // map) are byte-identical to a full-position walk.
  const TermIdSet& fresh_singles = delta.terms;
  const std::vector<TermKey>& pairs = delta.ndk_pairs;
  if (fresh_singles.empty() && pairs.empty()) return {};

  // term -> fresh pairs it participates in (a term may sit in many).
  FlatMap<TermId, std::vector<uint32_t>, IdHasher> pair_sides;
  for (uint32_t j = 0; j < pairs.size(); ++j) {
    pair_sides[pairs[j].term(0)].push_back(j);
    pair_sides[pairs[j].term(1)].push_back(j);
  }

  KeyMap<Accum> accums;
  text::WindowTail tail(params_.window);
  std::vector<TermId> pool;
  std::vector<char> fresh_ish;  // parallel to pool

  auto visit = [&](const TermKey& candidate, DocId d, uint32_t len) {
    auto [it, inserted] = accums.try_emplace(candidate);
    Accum& a = it->second;
    if (inserted) {
      a.valid = AllSubKeysNdk(candidate, oracle);
      if (!a.valid && stats != nullptr) ++stats->pruned_candidates;
    }
    if (!a.valid) return;
    a.Touch(d, len);
    if (stats != nullptr) ++stats->formations;
  };

  const int64_t w = static_cast<int64_t>(params_.window);
  // Per-pair last occurrence position of each side in the current
  // document, validity tracked by a document stamp (no O(pairs) reset per
  // document).
  std::vector<int64_t> last_side(2 * pairs.size(), -1);
  std::vector<uint32_t> side_stamp(2 * pairs.size(), 0);
  uint32_t doc_serial = 0;
  std::vector<size_t> active;  // trigger positions needing enumeration

  for (DocId d : docs) {
    std::span<const TermId> tokens = store.Tokens(d);
    const uint32_t len = static_cast<uint32_t>(tokens.size());
    if (stats != nullptr) {
      ++stats->documents_scanned;
      stats->positions_scanned += tokens.size();
    }
    ++doc_serial;
    active.clear();

    // Pass 1 (prefilter, hash lookups only): extend the "active horizon"
    // whenever a fresh single occurs (windows ending in [i, i+w-1]
    // contain it) or a fresh pair completes (both sides within w
    // positions: windows ending in [i, min_side + w - 1] contain both).
    int64_t active_until = -1;
    for (size_t i = 0; i < tokens.size(); ++i) {
      const TermId t = tokens[i];
      const int64_t pos = static_cast<int64_t>(i);
      if (fresh_singles.count(t) > 0) {
        active_until = std::max(active_until, pos + w - 1);
      }
      auto sides = pair_sides.find(t);
      if (sides != pair_sides.end()) {
        for (uint32_t j : sides->second) {
          const uint32_t self =
              2 * j + (pairs[j].term(0) == t ? 0u : 1u);
          const uint32_t other = self ^ 1u;
          side_stamp[self] = doc_serial;
          last_side[self] = pos;
          if (side_stamp[other] == doc_serial &&
              pos - last_side[other] <= w - 1) {
            active_until =
                std::max(active_until, last_side[other] + w - 1);
          }
        }
      }
      if (pos <= active_until) active.push_back(i);
    }
    if (active.empty()) continue;

    // Pass 2: enumeration only at the active positions. The tail is the
    // w-1 tokens preceding the trigger; across a gap it is rebuilt from
    // the window start (cost <= w pushes), between adjacent active
    // positions it advances incrementally — either way its state matches
    // a full walk exactly.
    tail.Reset();
    size_t next_push = 0;  // first token position not yet pushed
    for (size_t p : active) {
      const size_t win_start =
          p >= static_cast<size_t>(w - 1) ? p - (w - 1) : 0;
      if (win_start > next_push) {
        tail.Reset();
        next_push = win_start;
      }
      for (; next_push < p; ++next_push) {
        const TermId x = tokens[next_push];
        tail.Push(oracle.IsExpandableTerm(x) ? x : kInvalidTerm);
      }

      const TermId t = tokens[p];
      const bool eligible = oracle.IsExpandableTerm(t);
      if (eligible && !tail.distinct().empty()) {
        const bool fresh_t = delta.FreshTerm(t);
        pool.clear();
        for (TermId x : tail.distinct()) {
          if (x == t) continue;
          if (oracle.IsNdk(TermKey{x, t})) pool.push_back(x);
        }
        std::sort(pool.begin(), pool.end());

        // Candidate {x1, x2, t} with enumeration sub-key S = {x1, x2}: a
        // triple is new iff one of its sub-keys is fresh — a term became
        // expandable, a gate pair {x, t} became an NDK, or S became an
        // NDK.
        fresh_ish.assign(pool.size(), 0);
        for (size_t i = 0; i < pool.size(); ++i) {
          fresh_ish[i] = delta.FreshTerm(pool[i]) ||
                         delta.FreshNdk(TermKey{pool[i], t});
        }
        if (fresh_t) {
          // Every enumerable triple at this position is new.
          for (size_t i = 0; i < pool.size(); ++i) {
            for (size_t j = i + 1; j < pool.size(); ++j) {
              TermKey sub{pool[i], pool[j]};
              if (oracle.IsNdk(sub)) visit(sub.Extend(t), d, len);
            }
          }
        } else {
          // (a) pairs touching a fresh term or fresh gate;
          for (size_t i = 0; i < pool.size(); ++i) {
            for (size_t j = i + 1; j < pool.size(); ++j) {
              if (!fresh_ish[i] && !fresh_ish[j]) continue;
              TermKey sub{pool[i], pool[j]};
              if (oracle.IsNdk(sub)) visit(sub.Extend(t), d, len);
            }
          }
          // (b) all-old pairs whose sub-key itself freshly became an
          // NDK (disjoint from (a) by the fresh_ish guards).
          for (const TermKey& sub : delta.ndk_pairs) {
            const TermId a = sub.term(0), b = sub.term(1);
            if (a == t || b == t) continue;
            auto ia = std::lower_bound(pool.begin(), pool.end(), a);
            if (ia == pool.end() || *ia != a) continue;
            auto ib = std::lower_bound(pool.begin(), pool.end(), b);
            if (ib == pool.end() || *ib != b) continue;
            if (fresh_ish[ia - pool.begin()] ||
                fresh_ish[ib - pool.begin()]) {
              continue;  // already visited in (a)
            }
            visit(sub.Extend(t), d, len);
          }
        }
      }
      tail.Push(eligible ? t : kInvalidTerm);
      next_push = p + 1;
    }
  }

  KeyMap<index::PostingList> out;
  for (auto& [key, accum] : accums) {
    if (!accum.valid) continue;
    accum.FlushDoc();
    if (accum.postings.empty()) continue;
    out.emplace(key, index::PostingList(std::move(accum.postings)));
  }
  return out;
}

KeyMap<index::PostingList> CandidateBuilder::BuildLevelDeltaGeneral(
    uint32_t s, const corpus::DocumentStore& store,
    std::span<const DocId> docs, const NdkOracle& oracle,
    const OracleDelta& delta, CandidateBuildStats* stats) const {
  assert(s >= 4);
  // A level-s event is NEW exactly when one of the facts its generation
  // uses is fresh: the trigger or a pool term became expandable, a gate
  // pair {x, t} became an NDK, or one of the candidate's (s-1)-sub-keys
  // (including the enumeration sub-key) became an NDK. Keys published
  // earlier never gain events — their generation facts were all old (a
  // published key's sub-keys were NDKs the peer had been notified about,
  // which recursively implies old expandability and old gate pairs) — so
  // this walk regenerates exactly the unpublished candidates, with full
  // posting lists.
  KeyMap<Accum> accums;
  text::WindowTail tail(params_.window);
  std::vector<TermId> pool;

  // Fresh vocabularies for the O(1) position-relevance skip: newly
  // expandable singles, and the terms of fresh NDKs of the sizes
  // generation consults (gate pairs, (s-1)-sub-keys).
  const TermIdSet& fresh_singles = delta.terms;
  TermIdSet fresh_key_terms;
  for (const TermKey& k : delta.ndks) {
    if (k.size() == 2 || k.size() == s - 1) {
      for (TermId t : k.terms()) fresh_key_terms.insert(t);
    }
  }
  if (fresh_singles.empty() && fresh_key_terms.empty()) return {};

  // Ring mirroring the tail (w - 1 positions): per position, whether it
  // carried a fresh single / a fresh-key term, with running counts.
  constexpr char kSingle = 1, kKeyTerm = 2;
  std::vector<char> relevant_ring(params_.window - 1, 0);
  size_t ring_pos = 0;
  size_t ring_filled = 0;
  uint32_t singles_in_tail = 0;
  uint32_t key_terms_in_tail = 0;

  // Exact novelty test for one event: candidate = sub + {t}.
  auto fresh_event = [&](const TermKey& sub, TermId t,
                         const TermKey& candidate) {
    if (delta.FreshTerm(t)) return true;
    for (TermId x : sub.terms()) {
      if (delta.FreshTerm(x) || delta.FreshNdk(TermKey{x, t})) return true;
    }
    for (uint32_t i = 0; i < candidate.size(); ++i) {
      if (delta.FreshNdk(candidate.DropTerm(i))) return true;
    }
    return false;
  };

  for (DocId d : docs) {
    std::span<const TermId> tokens = store.Tokens(d);
    const uint32_t len = static_cast<uint32_t>(tokens.size());
    tail.Reset();
    std::fill(relevant_ring.begin(), relevant_ring.end(), 0);
    ring_pos = 0;
    ring_filled = 0;
    singles_in_tail = 0;
    key_terms_in_tail = 0;
    if (stats != nullptr) {
      ++stats->documents_scanned;
      stats->positions_scanned += tokens.size();
    }

    for (TermId t : tokens) {
      const bool eligible = oracle.IsExpandableTerm(t);
      const bool t_single = fresh_singles.count(t) > 0;
      const bool t_key_term = fresh_key_terms.count(t) > 0;
      // Every fresh fact a new event can use either is a fresh single in
      // the window or contributes >= 2 fresh-key terms to it.
      const bool position_relevant =
          t_single || singles_in_tail > 0 ||
          (t_key_term ? 1u : 0u) + key_terms_in_tail >= 2u;
      if (eligible && !tail.distinct().empty() && position_relevant) {
        pool.clear();
        for (TermId x : tail.distinct()) {
          if (x == t) continue;
          if (oracle.IsNdk(TermKey{x, t})) pool.push_back(x);
        }
        std::sort(pool.begin(), pool.end());

        EnumerateCandidates(
            pool, t, s - 1, oracle,
            [&](const TermKey& sub, const TermKey& candidate) {
              if (!fresh_event(sub, t, candidate)) return;
              auto [it, inserted] = accums.try_emplace(candidate);
              Accum& a = it->second;
              if (inserted) {
                a.valid = AllSubKeysNdk(candidate, oracle);
                if (!a.valid && stats != nullptr) {
                  ++stats->pruned_candidates;
                }
              }
              if (!a.valid) return;
              a.Touch(d, len);
              if (stats != nullptr) ++stats->formations;
            });
      }
      tail.Push(eligible ? t : kInvalidTerm);
      const char pushed =
          eligible ? static_cast<char>((t_single ? kSingle : 0) |
                                       (t_key_term ? kKeyTerm : 0))
                   : 0;
      if (!relevant_ring.empty()) {
        if (ring_filled == relevant_ring.size()) {
          const char evicted = relevant_ring[ring_pos];
          if (evicted & kSingle) --singles_in_tail;
          if (evicted & kKeyTerm) --key_terms_in_tail;
        } else {
          ++ring_filled;
        }
        relevant_ring[ring_pos] = pushed;
        if (pushed & kSingle) ++singles_in_tail;
        if (pushed & kKeyTerm) ++key_terms_in_tail;
        ring_pos = (ring_pos + 1) % relevant_ring.size();
      }
    }
  }

  KeyMap<index::PostingList> out;
  for (auto& [key, accum] : accums) {
    if (!accum.valid) continue;
    accum.FlushDoc();
    if (accum.postings.empty()) continue;
    out.emplace(key, index::PostingList(std::move(accum.postings)));
  }
  return out;
}

KeyMap<index::PostingList> CandidateBuilder::BuildLevel(
    uint32_t s, const corpus::DocumentStore& store, DocId first, DocId last,
    const NdkOracle& oracle, CandidateBuildStats* stats,
    size_t expected_candidates) const {
  assert(s >= 2);
  assert(s <= params_.s_max);

  // The interned hot path: every window subset is hashed incrementally
  // from its parent (one add per extension), repeated formations and
  // oracle probes are single flat-table lookups, and the per-candidate
  // accumulators live densely by KeyId. Output is candidate-for-candidate
  // identical to the historical unordered_map walk: the enumeration
  // order, the oracle answers and the per-event accumulation are
  // unchanged — only the container mechanics moved.
  CandidateAccum accums(expected_candidates);
  NdkVerdictCache ndk_cache(oracle);
  text::WindowTail tail(params_.window);
  std::vector<TermId> pool;  // eligible tail terms compatible with new term
  std::vector<uint64_t> pool_mix;  // TermSetHash of each pool term
  std::array<TermId, TermKey::kMaxTerms> sub_buf;
  std::array<TermId, TermKey::kMaxTerms> cand_buf;
  std::array<TermId, 2> pair_buf;
  const uint32_t k = s - 1;  // enumeration sub-key size

  for (DocId d = first; d < last; ++d) {
    std::span<const TermId> tokens = store.Tokens(d);
    const uint32_t len = static_cast<uint32_t>(tokens.size());
    tail.Reset();
    if (stats != nullptr) {
      ++stats->documents_scanned;
      stats->positions_scanned += tokens.size();
    }

    for (TermId t : tokens) {
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
          if (ndk_cache.Check(TermSetHash(x) + t_mix, pair_buf)) {
            pool.push_back(x);
          }
        }
        // Deterministic enumeration order regardless of hash-map internals.
        std::sort(pool.begin(), pool.end());
        pool_mix.resize(pool.size());
        for (size_t i = 0; i < pool.size(); ++i) {
          pool_mix[i] = TermSetHash(pool[i]);
        }

        auto visit = [&](std::span<const TermId> sub, uint64_t sub_hash) {
          // candidate = sub + {t}: sorted insert of t, hash composed from
          // the parent sub-key's hash.
          size_t n = 0;
          size_t i = 0;
          for (; i < sub.size() && sub[i] < t; ++i) cand_buf[n++] = sub[i];
          cand_buf[n++] = t;
          for (; i < sub.size(); ++i) cand_buf[n++] = sub[i];
          const uint64_t cand_hash = sub_hash + t_mix;
          const std::span<const TermId> cand(cand_buf.data(), n);

          bool inserted = false;
          Accum& a = accums.GetOrCreate(cand_hash, cand, &inserted);
          if (inserted) {
            a.valid = AllSubKeysNdkCached(cand, cand_hash, ndk_cache);
            if (!a.valid && stats != nullptr) ++stats->pruned_candidates;
          }
          if (!a.valid) return;
          a.Touch(d, len);
          if (stats != nullptr) ++stats->formations;
        };

        if (k == 1) {
          // s == 2: every pool term forms the pair candidate directly
          // (pool terms are tail survivors, hence expandable by
          // construction — the historical sub-key check was a tautology).
          for (size_t i = 0; i < pool.size(); ++i) {
            visit(std::span<const TermId>(&pool[i], 1), pool_mix[i]);
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
            if (ndk_cache.Check(sub_hash, sub)) visit(sub, sub_hash);
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
    }
  }

  return accums.Take();
}

}  // namespace hdk::hdk
