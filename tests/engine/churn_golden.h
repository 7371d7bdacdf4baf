// The churn corpus and the IndexingReport digest shared by the golden
// histories (build_golden, departure_golden) and the membership-churn
// tests.
#ifndef HDKP2P_TESTS_ENGINE_CHURN_GOLDEN_H_
#define HDKP2P_TESTS_ENGINE_CHURN_GOLDEN_H_

#include <cstdint>

#include "common/hash.h"
#include "corpus/synthetic.h"
#include "p2p/indexing_protocol.h"

namespace hdk::engine {

inline corpus::SyntheticCorpus ChurnCorpus() {
  corpus::SyntheticConfig cfg;
  cfg.seed = 31337;
  cfg.vocabulary_size = 3000;
  cfg.num_topics = 12;
  cfg.topic_width = 35;
  cfg.mean_doc_length = 50.0;
  cfg.topic_share = 0.7;
  return corpus::SyntheticCorpus(cfg);
}

/// Every field of every level of the report, in order.
inline uint64_t DigestReport(const p2p::IndexingReport& report) {
  uint64_t h = HashCombine(Mix64(report.levels.size()),
                           report.excluded_very_frequent_terms);
  for (const p2p::ProtocolLevelStats& l : report.levels) {
    for (uint64_t v :
         {static_cast<uint64_t>(l.level), l.keys_inserted,
          l.postings_inserted, l.hdks, l.ndks, l.notifications,
          l.generation.documents_scanned, l.generation.positions_scanned,
          l.generation.formations, l.generation.pruned_candidates}) {
      h = HashCombine(h, v);
    }
  }
  for (uint64_t v : report.inserted_postings_per_peer) h = HashCombine(h, v);
  return h;
}

}  // namespace hdk::engine

#endif  // HDKP2P_TESTS_ENGINE_CHURN_GOLDEN_H_
