// Synthetic multi-term query workload.
//
// SUBSTITUTION (see README "Scaling"): the paper samples 3,000 queries from a
// real Wikipedia query log (2-8 terms, average 3.02, each producing > 20
// hits; single-term queries excluded). This generator reproduces those
// workload properties against the synthetic collection: query terms are
// drawn from co-occurring window positions of real documents (so queries
// are topically coherent, like human queries), lengths follow a truncated
// geometric distribution with the paper's mean, and a per-term document
// frequency floor enforces the "> 20 hits" property.
#ifndef HDKP2P_CORPUS_QUERY_GEN_H_
#define HDKP2P_CORPUS_QUERY_GEN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "corpus/document.h"
#include "corpus/stats.h"

namespace hdk::corpus {

/// A generated query.
struct Query {
  /// Distinct query terms (unordered).
  std::vector<TermId> terms;
  /// Document the terms were sampled from (guaranteed to match).
  DocId source_doc = kInvalidDoc;

  size_t size() const { return terms.size(); }
};

/// Query generator configuration.
struct QueryGenConfig {
  uint64_t seed = 77;
  /// Inclusive term-count bounds (paper: 2..8).
  uint32_t min_terms = 2;
  uint32_t max_terms = 8;
  /// Geometric length distribution success probability; mean length is
  /// min_terms + (1-p)/p before truncation (p = 0.5 gives mean ~3).
  double length_p = 0.5;
  /// Terms with df below this floor are never used (paper: queries with
  /// more than 20 hits).
  Freq min_term_df = 20;
  /// Window (in token positions) from which a query's terms are sampled.
  uint32_t sample_window = 20;

  Status Validate() const;
};

/// Generates topically-coherent multi-term queries from a collection.
class QueryGenerator {
 public:
  QueryGenerator(QueryGenConfig config, const DocumentStore& store,
                 const CollectionStats& stats);

  /// Generates `n` queries. Deterministic given the config seed.
  std::vector<Query> Generate(size_t n) const;

  /// Average size of a batch of queries.
  static double AverageSize(std::span<const Query> queries);

 private:
  bool TryGenerateOne(Rng& rng, Query* out) const;

  QueryGenConfig config_;
  const DocumentStore& store_;
  const CollectionStats& stats_;
};

}  // namespace hdk::corpus

#endif  // HDKP2P_CORPUS_QUERY_GEN_H_
