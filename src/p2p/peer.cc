#include "p2p/peer.h"

#include <algorithm>

namespace hdk::p2p {

Peer::Peer(PeerId id, DocId first, DocId last, const HdkParams& params)
    : id_(id), first_(first), last_(last), params_(params),
      builder_(params) {}

hdk::KeyMap<index::PostingList> Peer::BuildLevel1(
    const corpus::DocumentStore& store,
    const TermIdSet& very_frequent,
    hdk::CandidateBuildStats* stats, const TermIdSet* only) const {
  return builder_.BuildLevel1(store, first_, last_, very_frequent, stats,
                              only);
}

hdk::KeyMap<index::PostingList> Peer::BuildLevel(
    uint32_t s, const corpus::DocumentStore& store,
    hdk::CandidateBuildStats* stats, size_t expected_candidates) const {
  return builder_.BuildLevel(s, store, first_, last_, oracle_, stats,
                             expected_candidates);
}

hdk::KeyMap<index::PostingList> Peer::BuildLevelDelta(
    uint32_t s, const corpus::DocumentStore& store,
    ContributionLookup contribution, hdk::CandidateBuildStats* stats) const {
  // Every window event of a NEW candidate lies in a document where one of
  // its fresh sub-keys occurs — and the peer contributed each fresh
  // sub-key with its full local list. The union is tiny: fresh facts are
  // keys that only just crossed DFmax.
  std::vector<DocId> docs;
  auto append = [&](const hdk::TermKey& key) {
    for (const index::Posting& p : contribution(key)) docs.push_back(p.doc);
  };
  for (TermId t : delta_.terms) append(hdk::TermKey{t});
  if (s >= 3) {
    for (const hdk::TermKey& pair : delta_.ndk_pairs) append(pair);
  }
  if (s >= 4) {
    // The generalized walk also consults fresh (s-1)-sub-keys (gate pairs
    // are already covered above).
    for (const hdk::TermKey& key : delta_.ndks) {
      if (key.size() == s - 1) append(key);
    }
  }
  std::sort(docs.begin(), docs.end());
  docs.erase(std::unique(docs.begin(), docs.end()), docs.end());

  return builder_.BuildLevelDelta(s, store, first_, last_, docs, oracle_,
                                  delta_, stats);
}

void Peer::PurgeTerms(const TermIdSet& terms) {
  for (TermId t : terms) {
    delta_.PurgeTerm(t);
    oracle_.PurgeTerm(t);
  }
}

bool Peer::OnNdkNotification(const hdk::TermKey& key) {
  if (key.size() == 1) {
    if (!oracle_.AddExpandableTerm(key.term(0))) return false;
    delta_.AddTerm(key.term(0));
    return true;
  }
  if (!oracle_.AddNdk(key)) return false;
  delta_.AddNdk(key);
  return true;
}

}  // namespace hdk::p2p
