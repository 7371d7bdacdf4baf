#include "hdk/query_lattice.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <memory_resource>

#include "index/score_accumulator.h"

namespace hdk::hdk {

uint64_t NumQueryKeys(uint32_t query_size, uint32_t s_max) {
  uint64_t total = 0;
  const uint32_t limit = std::min(query_size, s_max);
  for (uint32_t i = 1; i <= limit; ++i) {
    // Exact small binomials.
    uint64_t c = 1;
    for (uint32_t j = 1; j <= i; ++j) {
      c = c * (query_size - j + 1) / j;
    }
    total += c;
  }
  return total;
}

namespace {

// Advances `ix` (s ascending positions in [0, q)) to the next s-subset in
// lexicographic order; false after the last one.
bool NextCombination(std::span<uint32_t> ix, uint32_t q) {
  const auto s = static_cast<uint32_t>(ix.size());
  int i = static_cast<int>(s) - 1;
  while (i >= 0 && ix[i] == static_cast<uint32_t>(i) + q - s) --i;
  if (i < 0) return false;
  ++ix[i];
  for (uint32_t j = static_cast<uint32_t>(i) + 1; j < s; ++j) {
    ix[j] = ix[j - 1] + 1;
  }
  return true;
}

}  // namespace

std::vector<TermKey> EnumerateQuerySubsets(std::span<const TermId> query,
                                           uint32_t s_max) {
  // Deduplicate and sort the query terms.
  std::vector<TermId> terms(query.begin(), query.end());
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());

  const uint32_t q = static_cast<uint32_t>(terms.size());
  const uint32_t limit =
      std::min({s_max, q, TermKey::kMaxTerms});

  std::vector<TermKey> out;
  // Enumerate by size for the subsumption-friendly order.
  std::vector<uint32_t> ix;
  for (uint32_t s = 1; s <= limit; ++s) {
    ix.resize(s);
    for (uint32_t i = 0; i < s; ++i) ix[i] = i;
    do {
      std::vector<TermId> subset(s);
      for (uint32_t i = 0; i < s; ++i) subset[i] = terms[ix[i]];
      out.emplace_back(std::span<const TermId>(subset));
    } while (NextCombination(ix, q));
  }
  return out;
}

RetrievalPlan PlanRetrieval(std::span<const TermId> query, uint32_t s_max,
                            ProbeRef probe) {
  // The walk's buffers live in a stack arena; only an outsized query
  // spills to the heap. The arena is raw storage, written before it is
  // read, so it is left uninitialized.
  constexpr size_t kReservedBlockerWords = 256;
  std::array<std::byte, 4096> arena;
  std::pmr::monotonic_buffer_resource resource(arena.data(), arena.size());

  std::pmr::vector<TermId> terms(query.begin(), query.end(), &resource);
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  const auto q = static_cast<uint32_t>(terms.size());
  const uint32_t limit = std::min({s_max, q, TermKey::kMaxTerms});

  // A subset is a bitmask over positions in `terms`, `words` 64-bit words
  // wide. A subset is pruned when it covers a blocker: an absent subset
  // (its supersets are absent too) or a matched HDK (its supersets are
  // redundant). Covering an HDK means strictly containing it, since each
  // subset is visited once.
  const size_t words = (q + 63) / 64;
  std::pmr::vector<uint64_t> mask(words, &resource);
  std::pmr::vector<uint64_t> blockers(&resource);
  blockers.reserve(kReservedBlockerWords);
  auto covers_blocker = [&] {
    for (size_t b = 0; b < blockers.size(); b += words) {
      bool covers = true;
      for (size_t w = 0; w < words && covers; ++w) {
        covers = (mask[w] & blockers[b + w]) == blockers[b + w];
      }
      if (covers) return true;
    }
    return false;
  };

  RetrievalPlan plan;
  // Sized once: a short query's lattice bounds its fetched keys.
  plan.fetched.reserve(std::min<uint64_t>(NumQueryKeys(q, limit), 64));
  std::array<uint32_t, TermKey::kMaxTerms> ix{};
  std::array<TermId, TermKey::kMaxTerms> subset{};
  for (uint32_t s = 1; s <= limit; ++s) {
    const std::span<uint32_t> pos(ix.data(), s);
    for (uint32_t i = 0; i < s; ++i) pos[i] = i;
    do {
      std::fill(mask.begin(), mask.end(), 0);
      for (const uint32_t p : pos) mask[p / 64] |= uint64_t{1} << (p % 64);
      if (covers_blocker()) {
        ++plan.pruned;
        continue;
      }
      ++plan.probes;
      for (uint32_t i = 0; i < s; ++i) subset[i] = terms[pos[i]];
      const TermKey key = TermKey::FromSorted({subset.data(), s});
      const std::optional<ProbeOutcome> outcome = probe(key);
      if (outcome.has_value()) plan.fetched.push_back(key);
      if (!outcome.has_value() || outcome->is_hdk) {
        blockers.insert(blockers.end(), mask.begin(), mask.end());
      }
    } while (NextCombination(pos, q));
  }
  return plan;
}

std::vector<index::ScoredDoc> RankFetchedKeys(
    std::span<const FetchedKey> fetched, uint64_t collection_size,
    double avg_doc_length, size_t k, index::Bm25Params params) {
  const index::Bm25Scorer scorer(collection_size, avg_doc_length, params);
  index::ScoreAccumulator& scores = index::ScoreAccumulator::ForThread();
  for (const FetchedKey& f : fetched) {
    if (f.postings != nullptr) {
      scores.AddPostings(*f.postings, f.global_df, scorer);
    }
  }
  return scores.TakeTopK(k);
}

}  // namespace hdk::hdk
