#include "engine/experiment.h"

#include <algorithm>
#include <cassert>

namespace hdk::engine {

ExperimentSetup ExperimentSetup::ScaledDefault() {
  ExperimentSetup s;
  s.corpus.seed = 20070415;
  s.corpus.vocabulary_size = 200000;
  s.corpus.zipf_skew = 1.15;
  s.corpus.num_topics = 300;
  s.corpus.topic_width = 200;
  s.corpus.mean_doc_length = 100.0;
  s.initial_peers = 4;
  s.peer_step = 4;
  s.max_peers = 28;
  s.docs_per_peer = 300;
  s.num_queries = 250;
  return s;
}

ExperimentSetup ExperimentSetup::Tiny() {
  ExperimentSetup s = ScaledDefault();
  s.corpus.vocabulary_size = 50000;
  s.corpus.num_topics = 120;
  s.corpus.topic_width = 120;
  s.corpus.mean_doc_length = 90.0;
  s.initial_peers = 2;
  s.peer_step = 2;
  s.max_peers = 6;
  s.docs_per_peer = 150;
  s.num_queries = 60;
  // At a few hundred documents, the paper's large-collection DFmax/M ratio
  // (0.3%) would truncate NDK lists to a handful of postings; anchor to
  // the paper's SMALL-collection end instead (400/20k = 2%).
  s.df_max_fraction_low = 400.0 / 20000.0;
  s.df_max_fraction_high = 500.0 / 20000.0;
  return s;
}

Freq ExperimentSetup::DfMaxLow() const {
  return std::max<Freq>(
      4, static_cast<Freq>(df_max_fraction_low *
                           static_cast<double>(MaxDocuments())));
}

Freq ExperimentSetup::DfMaxHigh() const {
  return std::max<Freq>(
      DfMaxLow() + 1,
      static_cast<Freq>(df_max_fraction_high *
                        static_cast<double>(MaxDocuments())));
}

Freq ExperimentSetup::DeriveFf() const {
  const double tokens = static_cast<double>(MaxDocuments()) *
                        corpus.mean_doc_length;
  return std::max<Freq>(50, static_cast<Freq>(ff_fraction * tokens));
}

HdkParams ExperimentSetup::MakeParams(Freq df_max) const {
  HdkParams p;
  p.df_max = df_max;
  p.very_frequent_threshold = DeriveFf();
  p.rare_threshold = df_max;
  p.window = 20;   // paper Table 2
  p.s_max = 3;     // paper Table 2
  return p;
}

EngineConfig ExperimentSetup::MakeConfig(Freq df_max) const {
  EngineConfig config;
  config.hdk = MakeParams(df_max);
  config.overlay = overlay;
  config.overlay_seed = overlay_seed;
  config.num_threads = num_threads;
  return config;
}

std::vector<uint32_t> ExperimentSetup::PeerSweep() const {
  std::vector<uint32_t> sweep;
  for (uint32_t n = initial_peers; n <= max_peers; n += peer_step) {
    sweep.push_back(n);
  }
  return sweep;
}

ExperimentContext::ExperimentContext(const ExperimentSetup& setup)
    : setup_(setup), corpus_(setup.corpus) {}

ExperimentContext::~ExperimentContext() = default;

const corpus::DocumentStore& ExperimentContext::GrowTo(uint64_t docs) {
  corpus_.FillStore(docs, &store_);
  return store_;
}

const corpus::CollectionStats& ExperimentContext::StatsFor(uint64_t docs) {
  GrowTo(docs);
  if (stats_ == nullptr || stats_docs_ != store_.size()) {
    assert(store_.size() == docs &&
           "StatsFor expects monotone sweep growth");
    stats_ = std::make_unique<corpus::CollectionStats>(store_);
    stats_docs_ = store_.size();
  }
  return *stats_;
}

std::vector<corpus::Query> ExperimentContext::MakeQueries(
    uint64_t docs, uint32_t num_queries) {
  const corpus::CollectionStats& stats = StatsFor(docs);
  corpus::QueryGenConfig qcfg;
  qcfg.seed = setup_.corpus.seed ^ 0x5155455259ULL;  // "QUERY"
  // The paper requires > 20 hits per query; keep the floor meaningful on
  // scaled-down collections.
  qcfg.min_term_df = std::max<Freq>(
      5, static_cast<Freq>(20.0 * static_cast<double>(docs) / 140000.0));
  corpus::QueryGenerator gen(qcfg, store_, stats);
  return gen.Generate(num_queries);
}

Result<EnginesAtPoint> ExperimentContext::EnginesAt(uint32_t num_peers) {
  if (num_peers == 0) {
    return Status::InvalidArgument("EnginesAt: need >= 1 peer");
  }
  if (num_peers < built_peers_) {
    return Status::InvalidArgument(
        "EnginesAt: the peer sweep must be monotone (engines grow "
        "incrementally)");
  }

  EnginesAtPoint point;
  point.num_peers = num_peers;
  point.num_docs = static_cast<uint64_t>(num_peers) * setup_.docs_per_peer;

  const corpus::DocumentStore& store = GrowTo(point.num_docs);
  (void)StatsFor(point.num_docs);

  if (built_peers_ == 0) {
    auto ranges = SplitEvenly(point.num_docs, num_peers);

    const EngineConfig low = setup_.MakeConfig(setup_.DfMaxLow());
    const EngineConfig high = setup_.MakeConfig(setup_.DfMaxHigh());
    HDK_ASSIGN_OR_RETURN(hdk_low_,
                         HdkSearchEngine::Build(low, store, ranges));
    HDK_ASSIGN_OR_RETURN(hdk_high_,
                         HdkSearchEngine::Build(high, store, ranges));
    // The single-term baseline ignores the HDK parameters.
    HDK_ASSIGN_OR_RETURN(st_, SingleTermEngine::Build(low, store, ranges));
  } else if (num_peers > built_peers_) {
    // The paper's evolution step: the new peers join with the document
    // delta; nothing already indexed is re-indexed.
    const auto join = JoinRanges(
        static_cast<DocId>(static_cast<uint64_t>(built_peers_) *
                           setup_.docs_per_peer),
        num_peers - built_peers_, setup_.docs_per_peer);
    HDK_RETURN_NOT_OK(hdk_low_->AddPeers(store, join));
    HDK_RETURN_NOT_OK(hdk_high_->AddPeers(store, join));
    HDK_RETURN_NOT_OK(st_->AddPeers(store, join));
  }
  built_peers_ = num_peers;

  point.hdk_low = hdk_low_.get();
  point.hdk_high = hdk_high_.get();
  point.st = st_.get();
  return point;
}

}  // namespace hdk::engine
