#include "p2p/single_term.h"

#include <algorithm>

#include "common/hash.h"
#include "index/score_accumulator.h"

namespace hdk::p2p {

SingleTermP2PEngine::SingleTermP2PEngine(const dht::Overlay* overlay,
                                         net::TrafficRecorder* traffic,
                                         net::Resilience resilience)
    : overlay_(overlay), traffic_(traffic), res_(resilience) {
  EnsureCapacity();
}

void SingleTermP2PEngine::EnsureCapacity() {
  const size_t n = overlay_->num_peers();
  if (fragments_.size() < n) {
    fragments_.resize(n);
    inserted_by_peer_.resize(n, 0);
  }
  traffic_->EnsurePeers(n);
  if (res_.injector != nullptr) res_.injector->EnsurePeers(n);
  if (res_.health != nullptr) res_.health->EnsurePeers(n);
}

SingleTermP2PEngine::LocalIndex SingleTermP2PEngine::BuildLocal(
    const corpus::DocumentStore& store, DocId first, DocId last) {
  LocalIndex local;
  std::unordered_map<TermId, uint32_t> tf;
  for (DocId d = first; d < last; ++d) {
    std::span<const TermId> tokens = store.Tokens(d);
    tf.clear();
    for (TermId t : tokens) ++tf[t];
    const uint32_t len = static_cast<uint32_t>(tokens.size());
    for (const auto& [term, count] : tf) {
      local.terms[term].push_back(index::Posting{d, count, len});
    }
    ++local.documents;
    local.tokens += tokens.size();
  }
  return local;
}

void SingleTermP2PEngine::InsertLocal(PeerId src, LocalIndex local) {
  num_documents_ += local.documents;
  total_tokens_ += local.tokens;
  // Insert each term's local list into the DHT.
  for (auto& [term, postings] : local.terms) {
    const RingId ring_key = HashU64(term);
    const PeerId dst = overlay_->Responsible(ring_key);
    const size_t hops = overlay_->Route(src, ring_key);
    index::PostingList pl(std::move(postings));
    traffic_->Record(src, dst, net::MessageKind::kInsertPostings, pl.size(),
                     hops);
    inserted_by_peer_[src] += pl.size();
    fragments_[dst][term].Merge(pl);
  }
}

Status SingleTermP2PEngine::IndexPeer(PeerId src,
                                      const corpus::DocumentStore& store,
                                      DocId first, DocId last) {
  return IndexPeers(src, store, {{first, last}}, /*pool=*/nullptr);
}

Status SingleTermP2PEngine::IndexPeers(
    PeerId first_peer, const corpus::DocumentStore& store,
    const std::vector<std::pair<DocId, DocId>>& ranges, ThreadPool* pool) {
  for (const auto& [first, last] : ranges) {
    if (first > last || last > store.size()) {
      return Status::OutOfRange("IndexPeers: invalid document range");
    }
  }
  EnsureCapacity();

  // Concurrent per-peer scans, then a serial merge in ascending peer
  // order — fragments and traffic come out identical to the serial loop.
  std::vector<LocalIndex> locals(ranges.size());
  ParallelForEach(pool, ranges.size(), [&](size_t i) {
    locals[i] = BuildLocal(store, ranges[i].first, ranges[i].second);
  });
  for (size_t i = 0; i < ranges.size(); ++i) {
    InsertLocal(first_peer + static_cast<PeerId>(i), std::move(locals[i]));
  }
  return Status::OK();
}

uint64_t SingleTermP2PEngine::StoredPostingsAt(PeerId peer) const {
  if (peer >= fragments_.size()) return 0;
  uint64_t total = 0;
  for (const auto& [term, pl] : fragments_[peer]) total += pl.size();
  return total;
}

uint64_t SingleTermP2PEngine::TotalStoredPostings() const {
  uint64_t total = 0;
  for (PeerId p = 0; p < fragments_.size(); ++p) {
    total += StoredPostingsAt(p);
  }
  return total;
}

uint64_t SingleTermP2PEngine::InsertedPostingsBy(PeerId peer) const {
  return peer < inserted_by_peer_.size() ? inserted_by_peer_[peer] : 0;
}

SingleTermP2PEngine::DepartureReport SingleTermP2PEngine::OnPeerDeparted(
    PeerId p, const corpus::DocumentStore& store, DocId first, DocId last,
    std::span<const std::pair<DocId, DocId>> survivor_ranges) {
  DepartureReport report;

  // The departed documents leave the collection statistics ...
  for (DocId d = first; d < last && d < store.size(); ++d) {
    --num_documents_;
    total_tokens_ -= store.Tokens(d).size();
  }
  // ... and their postings leave every term fragment (owners identify the
  // contributor by document id; deletion travels no postings).
  for (auto& fragment : fragments_) {
    for (auto it = fragment.begin(); it != fragment.end();) {
      report.removed_postings += it->second.EraseDocRange(first, last);
      it = it->second.empty() ? fragment.erase(it) : std::next(it);
    }
  }

  // The departed peer's fragment needs new owners; surviving fragments
  // may also shift under the shrunk overlay.
  std::unordered_map<TermId, index::PostingList> orphaned =
      std::move(fragments_[p]);
  fragments_.erase(fragments_.begin() + p);
  inserted_by_peer_.erase(inserted_by_peer_.begin() + p);

  // The survivor hosting a document answers re-replication pulls for it.
  auto peer_of_doc = [&](DocId d) -> PeerId {
    for (PeerId q = 0; q < survivor_ranges.size(); ++q) {
      if (d >= survivor_ranges[q].first && d < survivor_ranges[q].second) {
        return q;
      }
    }
    return 0;
  };

  for (PeerId owner = 0; owner < fragments_.size(); ++owner) {
    auto& fragment = fragments_[owner];
    for (auto it = fragment.begin(); it != fragment.end();) {
      const PeerId new_owner = overlay_->Responsible(HashU64(it->first));
      if (new_owner == owner) {
        ++it;
        continue;
      }
      traffic_->Record(owner, new_owner, net::MessageKind::kMaintenance,
                       it->second.size(), /*hops=*/1);
      report.moved_postings += it->second.size();
      ++report.migrated_terms;
      fragments_[new_owner][it->first].Merge(it->second);
      it = fragment.erase(it);
    }
  }
  for (auto& [term, pl] : orphaned) {
    if (pl.empty()) continue;
    const PeerId new_owner = overlay_->Responsible(HashU64(term));
    traffic_->Record(peer_of_doc(pl[0].doc), new_owner,
                     net::MessageKind::kMaintenance, pl.size(), /*hops=*/1);
    report.moved_postings += pl.size();
    ++report.migrated_terms;
    fragments_[new_owner][term].Merge(pl);
  }
  return report;
}

std::unordered_map<TermId, index::PostingList>
SingleTermP2PEngine::ExportContents() const {
  std::unordered_map<TermId, index::PostingList> out;
  for (const auto& fragment : fragments_) {
    for (const auto& [term, pl] : fragment) {
      out[term].Merge(pl);
    }
  }
  return out;
}

uint64_t SingleTermP2PEngine::OnOverlayGrown() {
  EnsureCapacity();
  uint64_t migrated = 0;
  for (PeerId old_owner = 0; old_owner < fragments_.size(); ++old_owner) {
    auto& fragment = fragments_[old_owner];
    for (auto it = fragment.begin(); it != fragment.end();) {
      const PeerId new_owner = overlay_->Responsible(HashU64(it->first));
      if (new_owner == old_owner) {
        ++it;
        continue;
      }
      traffic_->Record(old_owner, new_owner, net::MessageKind::kMaintenance,
                       it->second.size(), /*hops=*/1);
      fragments_[new_owner][it->first].Merge(it->second);
      it = fragment.erase(it);
      ++migrated;
    }
  }
  return migrated;
}

index::SearchResponse SingleTermP2PEngine::Search(
    PeerId origin, std::span<const TermId> query, size_t k) const {
  index::SearchResponse exec;
  // Tally only the traffic THIS thread records: queries of a parallel
  // batch run concurrently against the shared recorder.
  const net::ScopedTally tally(traffic_);

  std::vector<TermId> terms(query.begin(), query.end());
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());

  const index::Bm25Scorer scorer(num_documents_,
                                 average_document_length());
  index::ScoreAccumulator& scores = index::ScoreAccumulator::ForThread();

  const net::Channel channel(traffic_, res_);

  for (TermId term : terms) {
    const RingId ring_key = HashU64(term);
    const PeerId dst = overlay_->Responsible(ring_key);
    const size_t hops = overlay_->Route(origin, ring_key);
    ++exec.cost.probes;

    const auto& fragment = fragments_[dst];
    auto it = fragment.find(term);
    const index::PostingList* pl =
        it == fragment.end() ? nullptr : &it->second;
    const uint64_t payload = pl != nullptr ? pl->size() : 0;

    // Terms are single-homed in this baseline: when the owner stays
    // unreachable after retries the term cannot contribute — the query
    // degrades to the reachable terms.
    const net::SendOutcome probe = channel.SendReliable(
        origin, dst, net::MessageKind::kKeyProbe, 0, hops, ring_key);
    exec.cost.retries += probe.retries;
    exec.cost.latency_ticks += probe.latency_ticks;
    if (!probe.delivered) {
      exec.degraded = true;
      ++exec.cost.keys_unreachable;
      continue;
    }
    const net::SendOutcome resp =
        channel.SendReliable(dst, origin, net::MessageKind::kPostingsResponse,
                             payload, /*hops=*/1, ring_key);
    exec.cost.retries += resp.retries;
    exec.cost.latency_ticks += resp.latency_ticks;
    if (!resp.delivered) {
      exec.degraded = true;
      ++exec.cost.keys_unreachable;
      continue;
    }
    exec.cost.postings_fetched += payload;
    if (pl != nullptr) ++exec.cost.keys_fetched;

    if (pl != nullptr) scores.AddPostings(*pl, pl->size(), scorer);
  }
  exec.results = scores.TakeTopK(k);

  exec.cost.messages = tally.counters().messages;
  exec.cost.hops = tally.counters().hops;
  return exec;
}

}  // namespace hdk::p2p
