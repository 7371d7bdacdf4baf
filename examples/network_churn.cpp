// Membership-churn scenario: peers join AND leave through the
// ApplyMembership lifecycle API, composed behind a result-cache decorator
// ("cached(hdk)"). A departure purges the departed peer's contributions
// from the distributed global index via the contribution ledger — keys
// whose document frequency falls back under DFmax flip to full-posting
// HDKs, keys whose knowledge basis left are retracted, and the fragments
// the departed peer hosted are re-replicated to the surviving responsible
// peers. The churned index is posting-for-posting identical to a
// from-scratch build over the survivors (this program verifies it), at a
// fraction of the cost: churn traffic instead of a rebuild.
#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.h"
#include "corpus/stats.h"
#include "corpus/synthetic.h"
#include "engine/engine_factory.h"
#include "engine/hdk_engine.h"
#include "engine/membership.h"
#include "engine/partition.h"
#include "engine/result_cache.h"

int main() {
  using namespace hdk;
  SetLogLevel(LogLevel::kWarning);

  corpus::SyntheticConfig corpus_cfg;
  corpus_cfg.seed = 1234;
  corpus_cfg.vocabulary_size = 4000;
  corpus_cfg.num_topics = 16;
  corpus_cfg.topic_width = 35;
  corpus_cfg.mean_doc_length = 60.0;
  corpus::SyntheticCorpus corpus(corpus_cfg);
  corpus::DocumentStore store;
  corpus.FillStore(1200, &store);

  engine::EngineConfig config;
  config.hdk.df_max = 16;
  config.hdk.very_frequent_threshold = 1500;
  config.hdk.window = 12;
  config.hdk.s_max = 3;
  config.num_threads = 1;

  // A result-cache decorator over the HDK engine, straight from a spec
  // string.
  auto built = engine::MakeEngine(std::string_view("cached:128(hdk)"),
                                  config, store,
                                  engine::SplitEvenly(800, 4));
  if (!built.ok()) {
    std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
    return 1;
  }
  auto* cached = static_cast<engine::ResultCacheEngine*>(built->get());
  auto* hdk_engine =
      static_cast<engine::HdkSearchEngine*>(&cached->inner());

  std::printf("network churn with '%s': %zu peers, %llu documents\n\n",
              std::string(cached->name()).c_str(), cached->num_peers(),
              static_cast<unsigned long long>(cached->num_documents()));

  // One mixed membership batch: two peers join with fresh documents, the
  // network absorbs them, then peer 1 churns out.
  std::vector<engine::MembershipEvent> events =
      engine::JoinWave(/*first=*/800, /*num_new_peers=*/2,
                       /*docs_per_peer=*/200);
  events.push_back(engine::MembershipEvent::Leave(1));
  std::printf("applying %zu membership events:", events.size());
  for (const auto& event : events) {
    std::printf(" %s", event.ToString().c_str());
  }
  std::printf("\n\n");
  if (Status st = cached->ApplyMembership(store, events); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  const p2p::GrowthStats& g = hdk_engine->last_growth();
  const p2p::DepartureStats& d = hdk_engine->last_departure();
  std::printf("join wave:  +%llu peers, %llu delta insertions, "
              "%llu reclassified, %llu migrated keys\n",
              static_cast<unsigned long long>(g.joined_peers),
              static_cast<unsigned long long>(g.delta_insertions),
              static_cast<unsigned long long>(g.reclassified_keys),
              static_cast<unsigned long long>(g.migrated_keys));
  std::printf("departure:  peer %llu left; %llu contributions purged, "
              "%llu keys erased,\n            %llu retracted, %llu "
              "reverse-reclassified (NDK -> HDK), %llu re-replicated,\n"
              "            %llu postings moved, %llu forget notices\n\n",
              static_cast<unsigned long long>(d.departed),
              static_cast<unsigned long long>(d.removed_contributions),
              static_cast<unsigned long long>(d.erased_keys),
              static_cast<unsigned long long>(d.retracted_keys),
              static_cast<unsigned long long>(d.reverse_reclassified),
              static_cast<unsigned long long>(d.migrated_keys +
                                              d.repaired_keys),
              static_cast<unsigned long long>(d.moved_postings),
              static_cast<unsigned long long>(d.forget_notifications));

  // The churn invariant, verified live: a from-scratch build over the
  // surviving ranges is posting-for-posting identical.
  const std::vector<engine::DocRange> survivors =
      hdk_engine->peer_ranges();
  std::printf("surviving ranges:");
  for (const auto& [first, last] : survivors) {
    std::printf(" [%u, %u)", first, last);
  }
  auto scratch =
      engine::HdkSearchEngine::Build(hdk_engine->config(), store,
                                     survivors);
  if (!scratch.ok()) {
    std::fprintf(stderr, "%s\n", scratch.status().ToString().c_str());
    return 1;
  }
  const auto churned_contents =
      hdk_engine->global_index().ExportContents();
  const auto scratch_contents =
      (*scratch)->global_index().ExportContents();
  bool identical = churned_contents.size() == scratch_contents.size();
  for (const auto& [key, entry] : scratch_contents.entries()) {
    const ::hdk::hdk::KeyEntry* other = churned_contents.Find(key);
    if (other == nullptr || other->global_df != entry.global_df ||
        other->is_hdk != entry.is_hdk ||
        !(other->postings == entry.postings)) {
      identical = false;
      break;
    }
  }
  std::printf("\nchurned index == from-scratch build over survivors: %s "
              "(%llu keys, %llu stored postings)\n\n",
              identical ? "YES" : "NO -- BUG",
              static_cast<unsigned long long>(churned_contents.size()),
              static_cast<unsigned long long>(
                  hdk_engine->global_index().TotalStoredPostings()));
  if (!identical) return 1;

  // And the cache front: a Zipf-ish repeated workload hits.
  corpus::CollectionStats stats(store, survivors);
  corpus::QueryGenConfig qcfg;
  qcfg.min_term_df = 3;
  auto queries =
      corpus::QueryGenerator(qcfg, store, stats).Generate(40);
  std::vector<corpus::Query> workload = queries;
  workload.insert(workload.end(), queries.begin(), queries.end());
  auto batch = cached->SearchBatch(workload, 20);
  std::printf("repeated %zu-query batch through the cache: %llu hits / "
              "%llu misses (hit rate %.2f)\n",
              workload.size(),
              static_cast<unsigned long long>(batch.total.cache_hits),
              static_cast<unsigned long long>(batch.total.cache_misses),
              cached->hit_rate());
  std::printf("a cache hit answers with ZERO network messages — the "
              "popular head of a Zipf workload\nnever touches the "
              "overlay.\n");
  return 0;
}
