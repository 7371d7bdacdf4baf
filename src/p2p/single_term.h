// The naive distributed single-term baseline (paper Section 1/5, the "ST"
// curves of Figures 3, 4 and 6): the classic global inverted index over a
// structured P2P network. Each peer inserts, for every distinct term of
// its local documents, its full local posting list; queries fetch the full
// global posting list of every query term.
//
// Unbounded posting lists are exactly what makes this baseline unscalable:
// per-query retrieval traffic grows linearly with the collection.
#ifndef HDKP2P_P2P_SINGLE_TERM_H_
#define HDKP2P_P2P_SINGLE_TERM_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/params.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "corpus/document.h"
#include "dht/overlay.h"
#include "index/bm25.h"
#include "index/posting.h"
#include "index/search_result.h"
#include "net/fault.h"
#include "net/traffic.h"

namespace hdk::p2p {

/// Distributed single-term index + BM25 retrieval.
class SingleTermP2PEngine {
 public:
  /// `resilience` (see net/fault.h) makes retrieval failure-aware: query
  /// messages retry with backoff, and a term whose owner stays
  /// unreachable degrades the response (terms are single-homed in this
  /// baseline — no replica failover). The default reproduces the
  /// perfect-transport engine byte for byte.
  SingleTermP2PEngine(const dht::Overlay* overlay,
                      net::TrafficRecorder* traffic,
                      net::Resilience resilience = {});

  /// Indexes documents [first, last) of `store` as peer `src`'s local
  /// collection: one insertion message per distinct local term, carrying
  /// the full local posting list.
  Status IndexPeer(PeerId src, const corpus::DocumentStore& store,
                   DocId first, DocId last);

  /// Indexes `ranges[i]` as peer `first_peer + i` for every i. The
  /// document scans (the expensive part) run concurrently on `pool`
  /// (nullptr = serial); the DHT insertions are merged serially in
  /// ascending peer order, so the resulting fragments and recorded traffic
  /// are identical to calling IndexPeer peer by peer.
  Status IndexPeers(PeerId first_peer, const corpus::DocumentStore& store,
                    const std::vector<std::pair<DocId, DocId>>& ranges,
                    ThreadPool* pool);

  /// Re-places stored term fragments after the overlay gained peers: every
  /// term whose responsible peer changed is handed over to its new owner
  /// (one kMaintenance message carrying the stored postings, 1 hop).
  /// Returns the number of migrated terms.
  uint64_t OnOverlayGrown();

  /// What one departure did (observability for benches and tests).
  struct DepartureReport {
    /// Postings of the departed peer's documents dropped from the global
    /// term fragments.
    uint64_t removed_postings = 0;
    /// Terms whose fragment moved to a new responsible peer (including
    /// the departed peer's whole fragment, re-replicated from survivors).
    uint64_t migrated_terms = 0;
    uint64_t moved_postings = 0;
  };

  /// Departure of peer `p`, which held documents [first, last) of
  /// `store`: those postings are dropped from every term fragment (the
  /// owners know the contributor of each posting by its document id — a
  /// direct deletion, no traffic), the departed peer's own fragment is
  /// re-replicated to the new responsible peers (kMaintenance from the
  /// survivor holding the term's first posting), and fragments whose
  /// responsibility moved under the shrunk overlay migrate. Must be
  /// called AFTER the overlay dropped the peer; `survivor_ranges` are the
  /// post-departure per-peer document ranges used to attribute
  /// re-replication sources. The resulting fragments are posting-for-
  /// posting identical to an index built over the survivors only.
  DepartureReport OnPeerDeparted(
      PeerId p, const corpus::DocumentStore& store, DocId first, DocId last,
      std::span<const std::pair<DocId, DocId>> survivor_ranges);

  /// Flattens the fragments into one logical term -> postings map
  /// (identity assertions in tests).
  std::unordered_map<TermId, index::PostingList> ExportContents() const;

  /// Postings stored on a peer's fragment / in total (Figure 3 ST curve).
  uint64_t StoredPostingsAt(PeerId peer) const;
  uint64_t TotalStoredPostings() const;

  /// Postings inserted by one peer during indexing (Figure 4 ST curve;
  /// equals the stored amount — nothing is truncated).
  uint64_t InsertedPostingsBy(PeerId peer) const;

  /// Query execution: fetches the full posting list of every distinct
  /// query term from the DHT (recording traffic) and ranks with BM25.
  /// QueryCost semantics here: probes = distinct terms looked up,
  /// keys_fetched = terms whose posting list existed, pruned = 0.
  index::SearchResponse Search(PeerId origin, std::span<const TermId> query,
                               size_t k) const;

  uint64_t num_documents() const { return num_documents_; }
  double average_document_length() const {
    return num_documents_ == 0
               ? 0.0
               : static_cast<double>(total_tokens_) /
                     static_cast<double>(num_documents_);
  }

 private:
  /// One peer's freshly scanned local collection, before DHT insertion.
  struct LocalIndex {
    std::unordered_map<TermId, std::vector<index::Posting>> terms;
    uint64_t documents = 0;
    uint64_t tokens = 0;
  };

  /// Pure scan of [first, last) — safe to run concurrently.
  static LocalIndex BuildLocal(const corpus::DocumentStore& store,
                               DocId first, DocId last);

  /// Serial merge of one peer's scan into the DHT fragments + traffic.
  void InsertLocal(PeerId src, LocalIndex local);

  /// Sizes the fragments and the per-peer traffic, fault and health state
  /// to the overlay. Serial sections only (net/fault.h sizing contract).
  void EnsureCapacity();

  const dht::Overlay* overlay_;
  net::TrafficRecorder* traffic_;
  net::Resilience res_;
  /// peer -> (term -> global posting list fragment).
  std::vector<std::unordered_map<TermId, index::PostingList>> fragments_;
  std::vector<uint64_t> inserted_by_peer_;
  uint64_t num_documents_ = 0;
  uint64_t total_tokens_ = 0;
};

}  // namespace hdk::p2p

#endif  // HDKP2P_P2P_SINGLE_TERM_H_
