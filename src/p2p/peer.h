// A peer of the HDK P2P retrieval network (paper Section 3).
//
// Each peer stores a fraction D(P_i) of the global collection (a contiguous
// DocId range here; the synthetic collection is i.i.d., so this is
// equivalent to the paper's random distribution), computes local candidate
// keys level by level, and maintains a local view of which of ITS submitted
// keys turned out to be globally non-discriminative — exactly the knowledge
// the paper says level-s computation needs ("the global document
// frequencies of the local size 1 and size (s-1) NDKs").
#ifndef HDKP2P_P2P_PEER_H_
#define HDKP2P_P2P_PEER_H_

#include <vector>

#include "common/cow_vec.h"
#include "common/flat_map.h"
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

  /// Only the level-s candidates that the peer's FRESH knowledge (facts
  /// learned since the last protocol pass, see fresh_knowledge()) makes
  /// newly generable — the incremental-growth work list.
  hdk::KeyMap<index::PostingList> BuildLevelDelta(
      uint32_t s, const corpus::DocumentStore& store,
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
  /// every known NDK and every published key containing one — a
  /// from-scratch build over the grown collection never creates them.
  void PurgeTerms(const TermIdSet& terms);

  /// Facts learned since the last protocol pass consumed them. Non-empty
  /// means the peer must re-derive candidate deltas at levels >= 2.
  const hdk::OracleDelta& fresh_knowledge() const { return delta_; }
  bool HasFreshKnowledge() const { return !delta_.empty(); }
  /// Called by the protocol once a Run/Grow pass has consumed the delta.
  void ClearFreshKnowledge() { delta_.Clear(); }

  /// Bookkeeping of the keys this peer has already inserted into the
  /// global index, per level. During incremental network growth an old
  /// peer re-derives its candidate set under its GROWN oracle and inserts
  /// only the delta — everything not yet published. For keys below the
  /// top level the peer also remembers WHICH local documents carried the
  /// key: when such a key later becomes expansion material (it crossed
  /// DFmax), the delta scan only has to revisit those documents.
  /// `key_hash` is the key's Hash64 — the scan wave already carries it
  /// (cached in the candidate map), so the bookkeeping probes never
  /// re-hash the term array.
  bool HasPublished(uint32_t level, const hdk::TermKey& key,
                    uint64_t key_hash) const {
    return level - 1 < published_.size() &&
           published_[level - 1].count_hashed(key_hash, key) > 0;
  }
  void MarkPublished(uint32_t level, const hdk::TermKey& key,
                     uint64_t key_hash, std::vector<DocId> docs) {
    if (published_.size() < level) published_.resize(level);
    published_[level - 1].insert_hashed(key_hash, key);
    if (!docs.empty()) {
      published_docs_.try_emplace_hashed(key_hash, key).first->second =
          std::move(docs);
    }
  }
  /// The departure repair retracted the peer's contribution to `key`.
  void Unpublish(uint32_t level, const hdk::TermKey& key) {
    if (level - 1 < published_.size()) published_[level - 1].erase(key);
    published_docs_.erase(key);
  }

  /// The peer's accumulated global knowledge.
  const hdk::SetNdkOracle& oracle() const { return oracle_; }

  // -- snapshot support (engine/engine_snapshot) -----------------------

  /// The published-key bookkeeping, read side: published_keys()[s - 1]
  /// holds the level-s keys this peer inserted; published_docs() the
  /// local documents remembered per published key.
  const std::vector<hdk::KeySet>& published_keys() const {
    return published_;
  }
  const hdk::KeyMap<CowVec<DocId>>& published_docs() const {
    return published_docs_;
  }

  /// Restores the accumulated local state on a freshly constructed peer
  /// (snapshot load). Fresh knowledge is intentionally absent: the
  /// protocol consumes every delta before a pass ends, so a snapshot
  /// never carries one.
  void RestoreLocalState(hdk::SetNdkOracle oracle,
                         std::vector<hdk::KeySet> published,
                         hdk::KeyMap<CowVec<DocId>> published_docs) {
    oracle_ = std::move(oracle);
    published_ = std::move(published);
    published_docs_ = std::move(published_docs);
  }

 private:
  PeerId id_;
  DocId first_;
  DocId last_;
  HdkParams params_;
  hdk::CandidateBuilder builder_;
  hdk::SetNdkOracle oracle_;
  hdk::OracleDelta delta_;
  /// published_[s - 1] = keys this peer inserted at level s.
  std::vector<hdk::KeySet> published_;
  /// Local documents carrying each published key (levels below smax).
  hdk::KeyMap<CowVec<DocId>> published_docs_;
};

}  // namespace hdk::p2p

#endif  // HDKP2P_P2P_PEER_H_
