// Synthetic Wikipedia-like document collection.
//
// SUBSTITUTION (see README "Scaling"): the paper indexes a Wikipedia subset
// (653,546 documents, avg 225 words after preprocessing) that we cannot ship.
// This generator reproduces the statistical properties the HDK model and all
// reported experiments depend on:
//
//   * Zipfian unigram rank-frequency distribution with configurable skew
//     (the paper fits a ~= 1.5 for single terms) and a hapax-heavy tail,
//   * topical term co-occurrence: documents draw a large share of their
//     tokens from a small number of topics, so term PAIRS and TRIPLES
//     recur across documents within proximity windows — exactly what gives
//     multi-term keys non-trivial document frequencies (a_2 ~= 0.9 in the
//     paper's fit),
//   * within-document burstiness (terms re-occur inside a document),
//   * document lengths around a configurable mean.
//
// Everything is deterministic given the seed, and each document is generated
// from an independently forked RNG stream keyed by (seed, doc id), so any
// prefix of the collection is stable as the collection grows — the paper's
// incremental "peers join the network" experiments depend on that.
#ifndef HDKP2P_CORPUS_SYNTHETIC_H_
#define HDKP2P_CORPUS_SYNTHETIC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "corpus/document.h"

namespace hdk::corpus {

/// Configuration of the synthetic collection.
struct SyntheticConfig {
  /// Master seed; two generators with equal configs produce identical docs.
  uint64_t seed = 20070415;

  /// Size of the global (background) vocabulary; the effective vocabulary
  /// of a finite sample is smaller (rare ranks never get drawn).
  uint32_t vocabulary_size = 400000;

  /// Zipf skew of the background unigram distribution (paper: a1 ~ 1.5).
  double zipf_skew = 1.15;

  /// The generator emits the POST-ANALYSIS token stream (stop words
  /// already removed). Real post-removal streams have a flattened head:
  /// this many top Zipf ranks are treated as removed stop words and
  /// resampled. Keeps the fixed Ff cutoff from progressively excising the
  /// productive mid-frequency band as the collection grows.
  uint32_t stopword_head_ranks = 32;

  /// Zipf skew of topic popularity (how concentrated documents are on hot
  /// topics). Flatter than 1.0 keeps the co-occurrence vocabulary growing
  /// through the sweep, like real text bigram growth.
  double topic_popularity_skew = 0.6;

  /// Number of latent topics.
  uint32_t num_topics = 400;

  /// Terms per topic (drawn from the mid-frequency band).
  uint32_t topic_width = 250;

  /// Zipf skew of the within-topic term distribution.
  double topic_skew = 1.05;

  /// Per-token probability of drawing from one of the document's topics
  /// (vs the background distribution).
  double topic_share = 0.55;

  /// Per-token probability of re-emitting an earlier token of the same
  /// document (burstiness / tf dispersion).
  double burstiness = 0.12;

  /// Mean document length in tokens (paper: 225 words after analysis).
  /// Lengths are Gamma-distributed around this mean.
  double mean_doc_length = 225.0;

  /// Minimal document length.
  uint32_t min_doc_length = 16;

  /// Maximal number of topics a document mixes.
  uint32_t max_topics_per_doc = 3;

  Status Validate() const;
};

/// Deterministic generator for a synthetic document collection.
class SyntheticCorpus {
 public:
  explicit SyntheticCorpus(SyntheticConfig config);

  /// Generates document number `doc_index` (0-based, global numbering).
  /// Deterministic: depends only on (config, doc_index).
  std::vector<TermId> GenerateTokens(uint64_t doc_index) const;

  /// Appends documents [store->size(), n) so that `store` holds the first
  /// n documents of the collection. Idempotent for already-present docs.
  void FillStore(uint64_t n, DocumentStore* store) const;

  /// Renders a term id as a deterministic pronounceable pseudo-word, e.g.
  /// term 0 -> "ba", 1 -> "be"... Used by examples that want to exercise
  /// the full text pipeline and by human-readable output.
  static std::string TermString(TermId id);

  const SyntheticConfig& config() const { return config_; }

 private:
  // Topic id -> alias table over its member terms.
  struct Topic {
    std::vector<TermId> members;
    std::unique_ptr<AliasTable> dist;
  };

  SyntheticConfig config_;
  ZipfSampler background_;
  std::vector<Topic> topics_;
  std::unique_ptr<AliasTable> topic_popularity_;
};

}  // namespace hdk::corpus

#endif  // HDKP2P_CORPUS_SYNTHETIC_H_
