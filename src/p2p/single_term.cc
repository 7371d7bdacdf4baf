#include "p2p/single_term.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"
#include "index/bloom.h"
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

SingleTermP2PEngine::ConjunctiveExecution
SingleTermP2PEngine::SearchConjunctive(PeerId origin,
                                       std::span<const TermId> query,
                                       size_t k, bool use_bloom,
                                       double bloom_fp_rate) const {
  ConjunctiveExecution exec;
  const net::ScopedTally tally(traffic_);

  const net::Channel channel(traffic_, res_);
  auto finalize = [&] {
    exec.messages = tally.counters().messages;
    exec.hops = tally.counters().hops;
  };
  // One protocol message; on a faulty transport it retries with backoff.
  // false = the hop stayed unreachable — the caller aborts the
  // conjunction degraded (chain protocols have no replica to fail over
  // to).
  auto send = [&](PeerId src, PeerId dst, net::MessageKind kind,
                  uint64_t postings, uint64_t hops, uint64_t salt) {
    const net::SendOutcome out =
        channel.SendReliable(src, dst, kind, postings, hops, salt);
    exec.retries += out.retries;
    if (!out.delivered) exec.degraded = true;
    return out.delivered;
  };

  // Resolve each distinct term to (owner, posting list), ascending df.
  std::vector<TermId> terms(query.begin(), query.end());
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());

  if (terms.empty()) return exec;

  struct TermLoc {
    TermId term;
    PeerId owner;
    const index::PostingList* postings;  // nullptr when absent
  };
  std::vector<TermLoc> locs;
  for (TermId t : terms) {
    const PeerId owner = overlay_->Responsible(HashU64(t));
    const auto& fragment = fragments_[owner];
    auto it = fragment.find(t);
    locs.push_back(
        {t, owner, it == fragment.end() ? nullptr : &it->second});
    if (locs.back().postings == nullptr) {
      // A missing term empties the conjunction; one probe settles it.
      const size_t hops = overlay_->Route(origin, HashU64(t));
      if (send(origin, owner, net::MessageKind::kKeyProbe, 0, hops,
               HashU64(t))) {
        send(owner, origin, net::MessageKind::kPostingsResponse, 0, 1,
             HashU64(t));
      }
      finalize();
      return exec;
    }
  }
  std::sort(locs.begin(), locs.end(),
            [](const TermLoc& a, const TermLoc& b) {
              return a.postings->size() < b.postings->size();
            });

  // Candidate computation.
  std::vector<DocId> candidates = locs.front().postings->Documents();
  if (!use_bloom || locs.size() == 1) {
    // Naive: every full list travels to the origin.
    for (const TermLoc& loc : locs) {
      const size_t hops = overlay_->Route(origin, HashU64(loc.term));
      if (!send(origin, loc.owner, net::MessageKind::kKeyProbe, 0, hops,
                HashU64(loc.term)) ||
          !send(loc.owner, origin, net::MessageKind::kPostingsResponse,
                loc.postings->size(), 1, HashU64(loc.term))) {
        finalize();
        return exec;
      }
      exec.postings_transferred += loc.postings->size();
    }
    for (size_t i = 1; i < locs.size(); ++i) {
      std::vector<DocId> next;
      for (DocId d : candidates) {
        if (locs[i].postings->Contains(d)) next.push_back(d);
      }
      candidates = std::move(next);
    }
  } else {
    // Bloom chain: owner_0 -> owner_1 -> ... -> owner_last, then the
    // surviving postings + per-term verification postings to the origin.
    // Posting-equivalents for the byte accounting of Bloom payloads use
    // the default cost model (12 bytes/posting).
    constexpr uint64_t kPostingBytes = 12;
    for (size_t i = 0; i + 1 < locs.size(); ++i) {
      index::BloomFilter bloom =
          index::BloomFilter::ForItems(candidates.size(), bloom_fp_rate);
      for (DocId d : candidates) bloom.Insert(d);
      exec.bloom_bytes += bloom.SizeBytes();
      const PeerId next_owner = locs[i + 1].owner;
      const size_t hops =
          overlay_->Route(locs[i].owner, HashU64(locs[i + 1].term));
      if (!send(locs[i].owner, next_owner, net::MessageKind::kBloomFilter,
                (bloom.SizeBytes() + kPostingBytes - 1) / kPostingBytes,
                hops, HashU64(locs[i + 1].term))) {
        finalize();
        return exec;
      }
      // The next owner intersects its list against the filter (keeping
      // Bloom false positives).
      std::vector<DocId> next;
      for (const index::Posting& p : locs[i + 1].postings->postings()) {
        if (bloom.MayContain(p.doc)) next.push_back(p.doc);
      }
      candidates = std::move(next);
    }
    // Last owner ships the surviving candidates to the origin.
    if (!send(locs.back().owner, origin,
              net::MessageKind::kPostingsResponse, candidates.size(), 1,
              HashU64(locs.back().term))) {
      finalize();
      return exec;
    }
    exec.postings_transferred += candidates.size();
    // Verification/scoring: every other owner ships its postings
    // restricted to the candidate set (also prunes false positives).
    for (size_t i = 0; i + 1 < locs.size(); ++i) {
      uint64_t shipped = 0;
      std::vector<DocId> verified;
      for (DocId d : candidates) {
        if (locs[i].postings->Contains(d)) {
          ++shipped;
          verified.push_back(d);
        }
      }
      if (!send(locs[i].owner, origin,
                net::MessageKind::kPostingsResponse, shipped, 1,
                HashU64(locs[i].term))) {
        finalize();
        return exec;
      }
      exec.postings_transferred += shipped;
      candidates = std::move(verified);
    }
  }

  // Exact BM25 scoring of the verified conjunctive candidates.
  index::Bm25Scorer scorer(num_documents_, average_document_length());
  index::TopK topk(k);
  for (DocId d : candidates) {
    double score = 0;
    for (const TermLoc& loc : locs) {
      const auto& pl = *loc.postings;
      auto docs = pl.postings();
      auto it = std::lower_bound(
          docs.begin(), docs.end(), d,
          [](const index::Posting& p, DocId doc) { return p.doc < doc; });
      if (it != docs.end() && it->doc == d) {
        score += scorer.Score(it->tf, pl.size(), it->doc_length);
      }
    }
    topk.Offer(index::ScoredDoc{d, score});
  }
  exec.results = topk.Take();

  finalize();
  return exec;
}

}  // namespace hdk::p2p
