// A peer of the HDK P2P retrieval network (paper Section 3).
//
// Each peer stores a fraction D(P_i) of the global collection (a contiguous
// DocId range here; the synthetic collection is i.i.d., so this is
// equivalent to the paper's random distribution), computes local candidate
// keys level by level, and maintains a local view of which of ITS submitted
// keys turned out to be globally non-discriminative — exactly the knowledge
// the paper says level-s computation needs ("the global document
// frequencies of the local size 1 and size (s-1) NDKs"). Which keys the
// peer has contributed, with their full local lists, is not kept here a
// second time: the global index's key table records each key's
// contributors, and DistributedGlobalIndex::ContributionOf derives the
// peer's list from it — the merged list restricted to the peer's
// document range, or the kept list of a locally truncated contribution.
// That is the simulator's stand-in for data that stays on the
// contributing peer.
#ifndef HDKP2P_P2P_PEER_H_
#define HDKP2P_P2P_PEER_H_

#include <span>
#include <vector>

#include "common/flat_map.h"
#include "common/function_ref.h"
#include "common/params.h"
#include "common/types.h"
#include "corpus/document.h"
#include "hdk/candidate_builder.h"
#include "hdk/key.h"

namespace hdk::p2p {

/// One peer: local documents + local key computation state.
class Peer {
 public:
  /// \param id     dense peer id (also the overlay id).
  /// \param first  first DocId of the peer's local fraction (inclusive).
  /// \param last   one past the last local DocId.
  Peer(PeerId id, DocId first, DocId last, const HdkParams& params);

  PeerId id() const { return id_; }
  /// A departure renumbered the peers above the departed id down by one.
  void set_id(PeerId id) { id_ = id; }
  DocId first_doc() const { return first_; }
  DocId last_doc() const { return last_; }
  uint64_t num_documents() const { return last_ - first_; }

  /// Local level-1 candidates: every non-very-frequent term of the local
  /// documents with its local posting list (only the `only` terms' lists
  /// when set; see CandidateBuilder::BuildLevel1).
  hdk::KeyMap<index::PostingList> BuildLevel1(
      const corpus::DocumentStore& store,
      const TermIdSet& very_frequent,
      hdk::CandidateBuildStats* stats = nullptr,
      const TermIdSet* only = nullptr) const;

  /// Local level-s candidates (s >= 2) under the peer's current global
  /// knowledge (NDK notifications received so far). `expected_candidates`
  /// pre-sizes the scan's accumulator tables (the protocol passes the
  /// peer's level-(s-1) candidate count; 0 grows on demand).
  hdk::KeyMap<index::PostingList> BuildLevel(
      uint32_t s, const corpus::DocumentStore& store,
      hdk::CandidateBuildStats* stats = nullptr,
      size_t expected_candidates = 0) const;

  /// The peer's full local list of a key it contributed, or an empty
  /// span.
  using ContributionLookup =
      FunctionRef<std::span<const index::Posting>(const hdk::TermKey&)>;

  /// Only the level-s candidates that the peer's FRESH knowledge (facts
  /// learned since the last protocol pass, see fresh_knowledge()) makes
  /// newly generable — the incremental-growth work list. `contribution`
  /// yields the peer's own list of a fresh sub-key, whose documents are
  /// the only ones the scan revisits.
  hdk::KeyMap<index::PostingList> BuildLevelDelta(
      uint32_t s, const corpus::DocumentStore& store,
      ContributionLookup contribution,
      hdk::CandidateBuildStats* stats = nullptr) const;

  /// Handles an NDK notification from the global index: the key this peer
  /// submitted is globally non-discriminative and becomes expansion
  /// material for the next level. Returns true when the notification
  /// carried NEW knowledge (the incremental protocol re-derives this
  /// peer's higher-level candidates only in that case).
  bool OnNdkNotification(const hdk::TermKey& key);

  /// Forgets a fact a departure took away (the key flipped back to
  /// discriminative, or the peer no longer contributes to it). Returns
  /// true if the peer held it.
  bool ForgetNdk(const hdk::TermKey& key) { return oracle_.Forget(key); }

  /// Forgets terms that became very frequent as the collection grew:
  /// every known NDK containing one — a from-scratch build over the grown
  /// collection never creates them.
  void PurgeTerms(const TermIdSet& terms);

  /// Facts learned since the last protocol pass consumed them. Non-empty
  /// means the peer must re-derive candidate deltas at levels >= 2.
  const hdk::OracleDelta& fresh_knowledge() const { return delta_; }
  bool HasFreshKnowledge() const { return !delta_.empty(); }
  /// Called by the protocol once a Run/Grow pass has consumed the delta.
  void ClearFreshKnowledge() { delta_.Clear(); }

  /// The peer's accumulated global knowledge.
  const hdk::SetNdkOracle& oracle() const { return oracle_; }

  // -- snapshot support (engine/engine_snapshot) -----------------------

  /// Restores the accumulated local knowledge on a freshly constructed
  /// peer (snapshot load). Fresh knowledge is intentionally absent: the
  /// protocol consumes every delta before a pass ends, so a snapshot
  /// never carries one.
  void RestoreLocalState(hdk::SetNdkOracle oracle) {
    oracle_ = std::move(oracle);
  }

 private:
  PeerId id_;
  DocId first_;
  DocId last_;
  HdkParams params_;
  hdk::CandidateBuilder builder_;
  hdk::SetNdkOracle oracle_;
  hdk::OracleDelta delta_;
};

}  // namespace hdk::p2p

#endif  // HDKP2P_P2P_PEER_H_
