// Level-wise candidate key generation (paper Section 3.1, "Computing the
// global index").
//
// At level s, a candidate key is a size-s term set that
//   (1) co-occurs within a window of w consecutive positions in at least one
//       local document (proximity filtering), and
//   (2) has ONLY non-discriminative proper sub-keys (the Apriori-style
//       precondition for being intrinsically discriminative, enabled by the
//       df anti-monotonicity / subsumption property).
//
// Whether a candidate is an HDK (df <= DFmax) or an NDK (df > DFmax) is
// decided by whoever aggregates document frequencies — the centralized
// indexer for the oracle implementation, the P2P global index for the
// distributed engine. The builder only generates candidates and their
// LOCAL posting lists.
#ifndef HDKP2P_HDK_CANDIDATE_BUILDER_H_
#define HDKP2P_HDK_CANDIDATE_BUILDER_H_

#include <span>
#include <vector>

#include "common/flat_map.h"
#include "common/params.h"
#include "common/status.h"
#include "common/types.h"
#include "corpus/document.h"
#include "hdk/key.h"
#include "index/posting.h"

namespace hdk::hdk {

/// Hash set / map keyed by TermKey — flat open-addressing tables (see
/// common/flat_map.h) with the canonical Hash64 identity. Iteration is in
/// (deterministic) insertion order, and every entry caches its Hash64, so
/// long-lived tables never re-hash a term array.
using KeySet = FlatSet<TermKey, TermKey::Hasher>;
template <typename V>
using KeyMap = FlatMap<TermKey, V, TermKey::Hasher>;

/// Global knowledge needed to generate level-s candidates: which terms may
/// participate in key building and which keys of smaller sizes are
/// (globally) non-discriminative.
class NdkOracle {
 public:
  virtual ~NdkOracle() = default;

  /// True if `t` is an expandable term: a single-term NDK that is not a
  /// very frequent term. Only such terms appear in keys of size >= 2
  /// (terms that are themselves discriminative make every superset
  /// redundant; very frequent terms are excluded from the key vocabulary).
  virtual bool IsExpandableTerm(TermId t) const = 0;

  /// True if `k` is a known (globally) non-discriminative key.
  virtual bool IsNdk(const TermKey& k) const = 0;
};

/// Set-backed oracle used by the centralized indexer and by tests.
class SetNdkOracle : public NdkOracle {
 public:
  SetNdkOracle() = default;

  /// Both insertions report whether the fact was NEW — the incremental
  /// indexing protocol uses this to know which peers gained knowledge and
  /// therefore need to re-derive higher-level candidates.
  bool AddExpandableTerm(TermId t) { return terms_.insert(t).second; }
  bool AddNdk(const TermKey& k) { return ndks_.insert(k).second; }

  /// Forgets a term that crossed the very-frequent threshold Ff while the
  /// collection grew, together with every known NDK containing it: a
  /// from-scratch build over the grown collection would exclude the term
  /// from the key vocabulary entirely. Returns true if anything changed.
  bool PurgeTerm(TermId t) {
    bool changed = terms_.erase(t) > 0;
    for (auto it = ndks_.begin(); it != ndks_.end();) {
      if (it->Contains(t)) {
        it = ndks_.erase(it);
        changed = true;
      } else {
        ++it;
      }
    }
    return changed;
  }

  /// Forgets one fact (a size-1 key is an expandable term). Returns true
  /// if the oracle held it.
  bool Forget(const TermKey& k) {
    return k.size() == 1 ? terms_.erase(k.term(0)) > 0 : ndks_.erase(k) > 0;
  }

  bool IsExpandableTerm(TermId t) const override {
    return terms_.count(t) > 0;
  }
  bool IsNdk(const TermKey& k) const override { return ndks_.count(k) > 0; }

  size_t num_expandable_terms() const { return terms_.size(); }
  size_t num_ndks() const { return ndks_.size(); }

  /// Fact iteration (the snapshot writer and the tests read the facts).
  const TermIdSet& expandable_terms() const { return terms_; }
  const KeySet& ndks() const { return ndks_; }

  /// Wholesale fact adoption (snapshot load, see
  /// engine/engine_snapshot.h): replaces the oracle's knowledge with a
  /// previously saved fact set.
  void Adopt(TermIdSet terms, KeySet ndks) {
    terms_ = std::move(terms);
    ndks_ = std::move(ndks);
  }

 private:
  TermIdSet terms_;
  KeySet ndks_;
};

/// True when `key` can be generated as a candidate under `oracle`'s
/// knowledge: every term is expandable and every (size-1)-sub-key is a
/// known NDK (by df anti-monotonicity this covers all proper sub-keys).
/// Size-1 keys are always generable (vocabulary filtering happens
/// earlier). The churn repair uses this to decide which previously
/// contributed keys a peer still produces once departed knowledge is
/// gone — the kept keys' window events (and so their posting lists) are
/// untouched, because every fact those events consume is a fact about the
/// key's own sub-structure.
bool GenerableUnder(const TermKey& key, const NdkOracle& oracle);

/// The facts a peer learned SINCE IT LAST GENERATED candidates: newly
/// expandable terms and newly non-discriminative keys. Incremental growth
/// uses this to generate only the candidate DELTA — any candidate whose
/// generation uses exclusively old facts was already produced by the
/// previous (deterministic) scan over the same documents.
struct OracleDelta {
  TermIdSet terms;                 // newly expandable single terms
  KeySet ndks;                     // newly non-discriminative keys
  std::vector<TermKey> ndk_pairs;  // the size-2 subset of `ndks`

  bool FreshTerm(TermId t) const { return terms.count(t) > 0; }
  bool FreshNdk(const TermKey& k) const { return ndks.count(k) > 0; }
  bool empty() const { return terms.empty() && ndks.empty(); }

  void AddTerm(TermId t) { terms.insert(t); }
  void AddNdk(const TermKey& k) {
    if (ndks.insert(k).second && k.size() == 2) ndk_pairs.push_back(k);
  }
  /// Forgets everything about a purged (newly very frequent) term.
  void PurgeTerm(TermId t) {
    terms.erase(t);
    for (auto it = ndks.begin(); it != ndks.end();) {
      it = it->Contains(t) ? ndks.erase(it) : std::next(it);
    }
    std::erase_if(ndk_pairs,
                  [t](const TermKey& k) { return k.Contains(t); });
  }
  void Clear() {
    terms.clear();
    ndks.clear();
    ndk_pairs.clear();
  }
};

/// Counters describing one candidate-generation pass. Parallel protocol
/// runs give every concurrent scan its own instance and fold them with
/// operator+= afterwards (sums are order-independent, so the folded totals
/// match a serial pass exactly).
struct CandidateBuildStats {
  uint64_t documents_scanned = 0;
  uint64_t positions_scanned = 0;
  /// Candidate occurrence events (each window-completion of a candidate).
  uint64_t formations = 0;
  /// Candidates rejected by the all-sub-keys-non-discriminative check.
  uint64_t pruned_candidates = 0;

  CandidateBuildStats& operator+=(const CandidateBuildStats& other) {
    documents_scanned += other.documents_scanned;
    positions_scanned += other.positions_scanned;
    formations += other.formations;
    pruned_candidates += other.pruned_candidates;
    return *this;
  }
};

/// Generates candidate keys and local posting lists for one level.
class CandidateBuilder {
 public:
  explicit CandidateBuilder(const HdkParams& params);

  /// Level 1: every term occurring in documents [first, last) of `store`,
  /// except the `excluded` (very frequent) terms, keyed as single-term
  /// keys with plain term posting lists. With `only` set, lists are built
  /// for those terms alone, while `stats` still counts the formations of
  /// every term, as the full scan would.
  KeyMap<index::PostingList> BuildLevel1(
      const corpus::DocumentStore& store, DocId first, DocId last,
      const TermIdSet& excluded, CandidateBuildStats* stats,
      const TermIdSet* only = nullptr) const;

  /// Level s >= 2: size-s candidates over documents [first, last).
  /// The returned posting lists carry, per document, the number of window
  /// co-occurrence events as tf. `expected_candidates` pre-sizes the
  /// accumulator tables (callers pass the level-(s-1) candidate count —
  /// an upper-bound-ish proxy that eliminates mid-scan rehashes; 0 means
  /// "grow on demand").
  KeyMap<index::PostingList> BuildLevel(uint32_t s,
                                        const corpus::DocumentStore& store,
                                        DocId first, DocId last,
                                        const NdkOracle& oracle,
                                        CandidateBuildStats* stats,
                                        size_t expected_candidates = 0) const;

  /// Level-s candidates that could NOT have been generated before `delta`
  /// was learned — the incremental-growth work list. A candidate is new
  /// exactly when one of its terms or one of its (s-1)-sub-keys is fresh
  /// (the oracle only ever grows, and a peer's documents never change, so
  /// all-old candidates were produced by the previous scan). Posting lists
  /// are identical to what a full BuildLevel would return for those keys.
  ///
  /// `docs` restricts the scan: every window event of a new candidate lies
  /// in a document where one of its fresh sub-keys (co-)occurs, so the
  /// caller passes the union of the fresh facts' local document lists —
  /// tiny, because a fresh fact is a key that only just crossed DFmax.
  /// s == 2 uses a hand-tuned fresh-single walk; s == 3 (the paper's
  /// smax, the dominant growth cost when many pairs cross DFmax per wave)
  /// uses the per-fresh-pair window walk (see BuildLevel3Delta) that
  /// enumerates only at windows actually containing a fresh fact; s >= 4
  /// (the "larger keys" extension) uses the generalized
  /// fresh-key-targeted walk, so growth cost stays delta-proportional at
  /// every level. [first, last) is unused (kept for signature stability).
  KeyMap<index::PostingList> BuildLevelDelta(
      uint32_t s, const corpus::DocumentStore& store, DocId first,
      DocId last, std::span<const DocId> docs, const NdkOracle& oracle,
      const OracleDelta& delta, CandidateBuildStats* stats) const;

  const HdkParams& params() const { return params_; }

 private:
  /// The level-3 per-fresh-pair window walk: a cheap hash-lookup prefilter
  /// pass first marks the trigger positions whose window contains a fresh
  /// single or BOTH terms of one fresh NDK pair (the exact precondition
  /// for any new triple event), then the expensive tail/enumeration
  /// machinery runs only at those positions, rebuilding the window tail
  /// across gaps. Candidate maps are byte-identical to the old
  /// full-position walk; cost drops from O(positions) tail updates per
  /// document to O(active positions * window).
  KeyMap<index::PostingList> BuildLevel3Delta(
      const corpus::DocumentStore& store, std::span<const DocId> docs,
      const NdkOracle& oracle, const OracleDelta& delta,
      CandidateBuildStats* stats) const;

  /// The generalized fresh-key-targeted delta walk used for s >= 4: at
  /// positions that can touch fresh knowledge, enumerate candidates as
  /// BuildLevel would and keep exactly the events whose generation uses a
  /// fresh fact (trigger/pool expandability, gate pair, or an
  /// (s-1)-sub-key of the candidate).
  KeyMap<index::PostingList> BuildLevelDeltaGeneral(
      uint32_t s, const corpus::DocumentStore& store,
      std::span<const DocId> docs, const NdkOracle& oracle,
      const OracleDelta& delta, CandidateBuildStats* stats) const;

  HdkParams params_;
};

}  // namespace hdk::hdk

#endif  // HDKP2P_HDK_CANDIDATE_BUILDER_H_
