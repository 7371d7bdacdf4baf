#include "layers.h"

#include <optional>
#include <string>
#include <vector>

#include "common/flat_map.h"
#include "engine/overlay_factory.h"
#include "hdk/candidate_builder.h"
#include "hdk/indexer.h"
#include "hdk/query_lattice.h"
#include "stats.h"

namespace hdkbench {

using hdk::PeerId;

void ReplayBuild(Run& run, const HdkSearchEngine& engine,
                 const hdk::corpus::DocumentStore& store) {
  const hdk::HdkParams& params = engine.config().hdk;

  // Every peer learns exactly the non-discriminative keys it contributed,
  // and a candidate's sub-keys co-occur in the same window of the same
  // peer's documents, so the global NDK set generates the same candidates.
  hdk::hdk::SetNdkOracle oracle;
  {
    const hdk::hdk::HdkIndexContents contents =
        engine.global_index().ExportContents();
    for (const auto& [key, entry] : contents.entries()) {
      if (entry.is_hdk) continue;
      oracle.AddNdk(key);
      if (key.size() == 1) oracle.AddExpandableTerm(key.term(0));
    }
  }
  hdk::TermIdSet very_frequent;
  for (hdk::TermId t : engine.collection_stats().VeryFrequentTerms(
           params.very_frequent_threshold)) {
    very_frequent.insert(t);
  }

  static constexpr const char* kLevelSpans[] = {"hdk.scan_l1", "hdk.scan_l2",
                                                "hdk.scan_l3"};
  const uint32_t levels = std::min<uint32_t>(params.s_max, 3);
  const hdk::hdk::CandidateBuilder builder(params);
  hdk::hdk::CandidateBuildStats generation;
  double scan_s[3] = {0, 0, 0};
  uint64_t candidates[3] = {0, 0, 0};
  const auto ranges = engine.peer_ranges();
  for (size_t peer = 0; peer < ranges.size(); ++peer) {
    const auto [first, last] = ranges[peer];
    size_t previous = 0;
    for (uint32_t s = 1; s <= levels; ++s) {
      const double t0 = NowSeconds();
      hdk::hdk::KeyMap<hdk::index::PostingList> level;
      {
        ScopedSpan span(run.tracer, kLevelSpans[s - 1], peer);
        level = s == 1 ? builder.BuildLevel1(store, first, last, very_frequent,
                                             &generation)
                       : builder.BuildLevel(s, store, first, last, oracle,
                                            &generation, previous);
      }
      scan_s[s - 1] += SecondsSince(t0);
      candidates[s - 1] += level.size();
      previous = level.size();
    }
  }

  uint64_t reported_formations = 0;
  for (const auto& level : engine.indexing_report().levels) {
    reported_formations += level.generation.formations;
  }
  run.tally.Check(generation.formations == reported_formations,
                  "replayed candidate formations (" +
                      std::to_string(generation.formations) +
                      ") equal indexing_report()'s (" +
                      std::to_string(reported_formations) + ")");

  Metrics& m = run.metrics;
  m.Set("hdk.scan_l1_s", scan_s[0], "s");
  m.Set("hdk.scan_l2_s", scan_s[1], "s");
  m.Set("hdk.scan_l3_s", scan_s[2], "s");
  m.Set("hdk.formations", static_cast<double>(generation.formations),
        "count");
  m.Set("hdk.candidates_l2", static_cast<double>(candidates[1]), "count");
  m.Set("hdk.candidates_l3", static_cast<double>(candidates[2]), "count");
  m.Set("hdk.pruned_candidates",
        static_cast<double>(generation.pruned_candidates), "count");
}

void ReplayQueries(Run& run, HdkSearchEngine& engine,
                   std::span<const hdk::corpus::Query> queries,
                   const OriginFn& origin) {
  Tracer& tracer = run.tracer;
  const auto& global = engine.global_index();
  const auto& stats = engine.collection_stats();
  const uint32_t s_max = engine.config().hdk.s_max;

  double probes = 0;
  double pruned = 0;
  double keys_fetched = 0;
  double rank_postings = 0;
  uint64_t compared = 0;
  uint64_t mismatches = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const std::vector<hdk::TermId>& terms = queries[i].terms;
    const PeerId from = origin(i, engine.num_peers());

    hdk::engine::SearchResponse response;
    {
      ScopedSpan span(tracer, "replay.search", i);
      response = engine.Search(terms, kTopK, hdk::SearchOptions{}, from);
    }

    ScopedSpan replay(tracer, "replay.query", i);
    std::vector<hdk::hdk::FetchedKey> fetched;
    hdk::hdk::RetrievalPlan plan;
    {
      ScopedSpan lattice(tracer, "hdk.lattice", i, replay.index());
      plan = hdk::hdk::PlanRetrieval(
          terms, s_max,
          [&](const hdk::hdk::TermKey& key)
              -> std::optional<hdk::hdk::ProbeOutcome> {
            const hdk::hdk::KeyEntry* entry = nullptr;
            {
              ScopedSpan fetch(tracer, "p2p.fetch", i, lattice.index());
              entry = global.FetchFrom(from, key);
            }
            if (entry == nullptr) return std::nullopt;
            fetched.push_back(hdk::hdk::FetchedKey{
                key, entry->global_df, entry->is_hdk, &entry->postings});
            return hdk::hdk::ProbeOutcome{entry->is_hdk};
          });
    }
    std::vector<hdk::engine::ScoredDoc> ranked;
    {
      ScopedSpan rank(tracer, "hdk.rank", i, replay.index());
      ranked = hdk::hdk::RankFetchedKeys(fetched, stats.num_documents(),
                                         stats.average_document_length(),
                                         kTopK);
    }

    probes += static_cast<double>(plan.probes);
    pruned += static_cast<double>(plan.pruned);
    keys_fetched += static_cast<double>(plan.fetched.size());
    for (const auto& key : fetched) {
      rank_postings += static_cast<double>(key.postings->size());
    }
    // A degraded response answered from fewer keys than the replay sees.
    if (response.degraded) continue;
    ++compared;
    bool same = ranked.size() == response.results.size();
    for (size_t r = 0; same && r < ranked.size(); ++r) {
      same = ranked[r].doc == response.results[r].doc &&
             ranked[r].score == response.results[r].score;
    }
    if (!same) ++mismatches;
  }
  run.tally.Check(mismatches == 0,
                  std::to_string(mismatches) + " of " +
                      std::to_string(compared) +
                      " replayed top-k lists differ from Search()'s");

  const auto n = static_cast<double>(queries.size());
  const double search_us = tracer.Summarize("replay.search").total_s * 1e6 / n;
  const auto lattice = tracer.Summarize("hdk.lattice");
  const double lattice_self_us = lattice.self_s * 1e6 / n;
  const double fetch_us = tracer.Summarize("p2p.fetch").total_s * 1e6 / n;
  const double rank_us = tracer.Summarize("hdk.rank").total_s * 1e6 / n;

  Metrics& m = run.metrics;
  m.Set("hdk.lattice_us", lattice_self_us, "us");
  m.Set("p2p.fetch_us", fetch_us, "us");
  m.Set("hdk.rank_us", rank_us, "us");
  m.Set("engine.search_self_us",
        search_us - lattice_self_us - fetch_us - rank_us, "us");
  m.Set("hdk.probes", probes / n, "count");
  m.Set("hdk.pruned_nodes", pruned / n, "count");
  m.Set("hdk.rank_postings", rank_postings / n, "postings");
  m.Set("p2p.keys_fetched", keys_fetched / n, "count");
}

void ProbeOverlay(Run& run, const ExperimentSetup& setup) {
  constexpr int kOps = 256;
  auto overlay = hdk::engine::MakeOverlay(setup.overlay, setup.max_peers,
                                          setup.overlay_seed);
  std::vector<double> add_us;
  std::vector<double> remove_us;
  uint64_t failed = 0;
  for (int i = 0; i < kOps; ++i) {
    // Join then leave, so the overlay keeps the run's size.
    double t0 = NowSeconds();
    hdk::Status added;
    {
      ScopedSpan span(run.tracer, "dht.add_peer", i);
      added = overlay->AddPeer();
    }
    add_us.push_back(SecondsSince(t0) * 1e6);
    t0 = NowSeconds();
    hdk::Status removed;
    {
      ScopedSpan span(run.tracer, "dht.remove_peer", i);
      removed = overlay->RemovePeer(0);
    }
    remove_us.push_back(SecondsSince(t0) * 1e6);
    failed += (added.ok() ? 0 : 1) + (removed.ok() ? 0 : 1);
  }
  run.tally.Ops(2 * kOps, failed, "overlay AddPeer/RemovePeer calls");
  run.metrics.Set("dht.add_peer_us", Median(add_us), "us");
  run.metrics.Set("dht.remove_peer_us", Median(remove_us), "us");
}

void MeasureThreadScaling(Run& run, const ExperimentSetup& setup,
                          const hdk::corpus::DocumentStore& store) {
  const uint64_t docs =
      static_cast<uint64_t>(setup.max_peers) * setup.docs_per_peer;
  struct Point {
    size_t threads;
    const char* suffix;
    double build_s = 0, scan_s = 0, merge_s = 0;
  };
  Point points[] = {{1, "t1"}, {EngineThreads(), "tmax"}};
  for (Point& point : points) {
    const double t0 = NowSeconds();
    auto built = [&] {
      ScopedSpan span(run.tracer, "engine.build", point.threads);
      return HdkSearchEngine::Build(
          ServeConfig(setup, point.threads), store,
          hdk::engine::SplitEvenly(docs, setup.max_peers));
    }();
    point.build_s = SecondsSince(t0);
    if (!run.tally.Op(built.ok(), "thread-scaling build")) return;
    point.scan_s = (*built)->phase_timings().scan_seconds;
    point.merge_s = (*built)->phase_timings().merge_seconds;
  }
  Metrics& m = run.metrics;
  for (const Point& p : points) {
    m.Set(std::string("engine.build_s.") + p.suffix, p.build_s, "s");
    m.Set(std::string("p2p.scan_s.") + p.suffix, p.scan_s, "s");
    m.Set(std::string("p2p.merge_s.") + p.suffix, p.merge_s, "s");
  }
  m.Set("engine.build_speedup", points[0].build_s / points[1].build_s,
        "ratio");
  m.Set("p2p.scan_speedup", points[0].scan_s / points[1].scan_s, "ratio");
  m.Set("p2p.merge_speedup", points[0].merge_s / points[1].merge_s, "ratio");
}

void MeasureTraceOverhead(Run& run, HdkSearchEngine& engine,
                          std::span<const hdk::corpus::Query> queries,
                          const hdk::SearchOptions& options,
                          const OriginFn& origin) {
  std::vector<double> plain;
  std::vector<double> traced;
  // The first (warm-up) round is not kept.
  for (int rep = 0; rep < 6; ++rep) {
    for (const bool record : {false, true}) {
      const double t0 = NowSeconds();
      for (size_t i = 0; i < queries.size(); ++i) {
        const int32_t span =
            record ? run.tracer.Begin("overhead.search", i) : kNoSpan;
        engine.Search(queries[i].terms, kTopK, options,
                      origin(i, engine.num_peers()));
        run.tracer.End(span);
      }
      if (rep > 0) (record ? traced : plain).push_back(SecondsSince(t0));
    }
  }
  run.tally.Ops(12 * queries.size(), 0, "trace-overhead queries");
  run.metrics.Set("trace.overhead_pct",
                  100.0 * (Median(traced) - Median(plain)) / Median(plain),
                  "%");
}

}  // namespace hdkbench
