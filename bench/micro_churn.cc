// Membership-churn micro-bench: join/leave waves through the
// ApplyMembership lifecycle API.
//
// Measures, for the distributed engines (plus the "cached(hdk)" decorator
// stack), the wall time and network cost of alternating join and
// departure waves — messages and postings moved per membership event —
// and the result-cache hit rate of a repeated query batch between waves.
// For the HDK engines a departure wave's time is split into the in-place
// repair, the handover/repair billing and the replica reconciliation
// (p2p::PhaseTimings).
// Emits BENCH_churn.json. (Plain main(), no Google Benchmark dependency,
// like micro_parallel.)
//
// Env knobs (see bench_common.h): HDKP2P_BENCH_SCALE=tiny,
// HDKP2P_THREADS.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "engine/engine_factory.h"
#include "engine/hdk_engine.h"
#include "engine/membership.h"
#include "engine/partition.h"
#include "engine/result_cache.h"
#include "sync/sync.h"

namespace {

using namespace hdk;

struct WavePoint {
  std::string kind;         // "join" or "leave"
  size_t events = 0;
  size_t peers_after = 0;
  double seconds = 0;
  uint64_t messages = 0;
  uint64_t postings_moved = 0;
  /// The departure phase split; only HDK engines report it.
  bool has_phases = false;
  double repair_s = 0;
  double diff_s = 0;
  double reconcile_s = 0;
};

struct EngineRun {
  std::string spec;
  std::vector<WavePoint> waves;
  double batch_cold_s = 0;
  double batch_warm_s = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  double cache_hit_rate = 0;
};

net::TrafficCounters Delta(const net::TrafficCounters& before,
                           const net::TrafficCounters& after) {
  net::TrafficCounters d;
  d.messages = after.messages - before.messages;
  d.postings = after.postings - before.postings;
  d.hops = after.hops - before.hops;
  d.bytes = after.bytes - before.bytes;
  return d;
}

}  // namespace

int main() {
  auto setup = bench::SelectSetup();
  bench::Banner(
      "micro_churn: join/leave waves through ApplyMembership",
      "real overlays churn — departures must cost churn traffic, not a "
      "rebuild");
  bench::PrintSetup(setup);

  const uint32_t initial_peers = setup.initial_peers;
  const uint32_t wave = setup.peer_step;
  const uint32_t leave_per_wave = std::max(1u, wave / 2);
  const uint64_t total_docs =
      static_cast<uint64_t>(initial_peers + 2 * wave) * setup.docs_per_peer;

  engine::ExperimentContext ctx(setup);
  const corpus::DocumentStore& store = ctx.GrowTo(total_docs);
  std::vector<corpus::Query> queries =
      ctx.MakeQueries(initial_peers * setup.docs_per_peer,
                      setup.num_queries);
  // A repeated workload (each query twice): the cache's bread and butter.
  {
    const size_t base = queries.size();
    for (size_t i = 0; i < base; ++i) queries.push_back(queries[i]);
  }

  // The last row is the replicated repair baseline: churn-time replica
  // maintenance routed through the IBF sync protocol, so its waves price
  // messages-per-repair and postings-shipped-per-repair against the
  // unreplicated engines (micro_antientropy covers the sweep itself).
  struct RunSpec {
    const char* label;
    const char* spec;
    uint32_t replication;
  };
  const std::vector<RunSpec> specs = {
      {"hdk", "hdk", 1},
      {"single-term", "single-term", 1},
      {"cached(hdk)", "cached(hdk)", 1},
      {"hdk-r2-ibf", "hdk", 2},
  };
  std::vector<EngineRun> runs;

  for (const RunSpec& spec : specs) {
    engine::EngineConfig config = setup.MakeConfig(setup.DfMaxLow());
    config.replication = spec.replication;

    auto built = engine::MakeEngine(
        std::string_view(spec.spec), config, store,
        engine::SplitEvenly(initial_peers * setup.docs_per_peer,
                            initial_peers));
    if (!built.ok()) {
      std::fprintf(stderr, "build failed for %s: %s\n", spec.label,
                   built.status().ToString().c_str());
      return 1;
    }
    engine::SearchEngine& engine = **built;
    EngineRun run;
    run.spec = spec.label;

    std::printf("%-14s %-6s %7s %10s %12s %14s %16s %10s %10s %12s\n",
                spec.label, "wave", "events", "peers", "seconds", "messages",
                "postings_moved", "repair_s", "diff_s", "reconcile_s");
    // Decorated stacks hide the HDK engine; their phase columns stay
    // empty.
    const auto* hdk_engine =
        dynamic_cast<const engine::HdkSearchEngine*>(&engine);
    auto phases = [hdk_engine] {
      return hdk_engine != nullptr ? hdk_engine->phase_timings()
                                   : p2p::PhaseTimings{};
    };

    DocId frontier =
        static_cast<DocId>(initial_peers) * setup.docs_per_peer;
    auto run_wave = [&](const std::vector<engine::MembershipEvent>& events,
                        const char* kind) -> bool {
      const net::TrafficCounters before =
          engine.traffic() != nullptr ? engine.traffic()->Snapshot()
                                      : net::TrafficCounters{};
      const p2p::PhaseTimings phases_before = phases();
      Stopwatch watch;
      Status st = engine.ApplyMembership(store, events);
      const double seconds = watch.ElapsedSeconds();
      if (!st.ok()) {
        std::fprintf(stderr, "%s wave failed: %s\n", kind,
                     st.ToString().c_str());
        return false;
      }
      const net::TrafficCounters after =
          engine.traffic() != nullptr ? engine.traffic()->Snapshot()
                                      : net::TrafficCounters{};
      const net::TrafficCounters delta = Delta(before, after);
      WavePoint point;
      point.kind = kind;
      point.events = events.size();
      point.peers_after = engine.num_peers();
      point.seconds = seconds;
      point.messages = delta.messages;
      point.postings_moved = delta.postings;
      const p2p::PhaseTimings phases_after = phases();
      point.has_phases = hdk_engine != nullptr;
      point.repair_s = phases_after.departure_repair_seconds -
                       phases_before.departure_repair_seconds;
      point.diff_s = phases_after.departure_diff_seconds -
                     phases_before.departure_diff_seconds;
      point.reconcile_s = phases_after.departure_reconcile_seconds -
                          phases_before.departure_reconcile_seconds;
      run.waves.push_back(point);
      std::printf("%-14s %-6s %7zu %10zu %12.4f %14llu %16llu", "", kind,
                  point.events, point.peers_after, point.seconds,
                  static_cast<unsigned long long>(point.messages),
                  static_cast<unsigned long long>(point.postings_moved));
      if (point.has_phases) {
        std::printf(" %10.4f %10.4f %12.4f\n", point.repair_s,
                    point.diff_s, point.reconcile_s);
      } else {
        std::printf(" %10s %10s %12s\n", "-", "-", "-");
      }
      return true;
    };

    for (int cycle = 0; cycle < 2; ++cycle) {
      // Join wave: `wave` peers, docs_per_peer each, from the frontier.
      std::vector<engine::MembershipEvent> joins =
          engine::JoinWave(frontier, wave, setup.docs_per_peer);
      frontier += static_cast<DocId>(wave) * setup.docs_per_peer;
      if (!run_wave(joins, "join")) return 1;

      // Leave wave: odd-positioned peers churn out one by one.
      std::vector<engine::MembershipEvent> leaves;
      for (uint32_t i = 0; i < leave_per_wave; ++i) {
        leaves.push_back(engine::MembershipEvent::Leave(
            static_cast<PeerId>(1 + i)));
      }
      if (!run_wave(leaves, "leave")) return 1;
    }

    // Repeated query batch over the churned network: cold, then warm.
    Stopwatch cold;
    auto cold_batch = engine.SearchBatch(queries, setup.top_k);
    run.batch_cold_s = cold.ElapsedSeconds();
    Stopwatch warm;
    auto warm_batch = engine.SearchBatch(queries, setup.top_k);
    run.batch_warm_s = warm.ElapsedSeconds();
    run.cache_hits =
        cold_batch.total.cache_hits + warm_batch.total.cache_hits;
    run.cache_misses =
        cold_batch.total.cache_misses + warm_batch.total.cache_misses;
    const uint64_t lookups = run.cache_hits + run.cache_misses;
    run.cache_hit_rate =
        lookups == 0 ? 0.0
                     : static_cast<double>(run.cache_hits) /
                           static_cast<double>(lookups);
    std::printf("%-14s batch: cold %.4fs warm %.4fs | cache hits %llu "
                "misses %llu (hit rate %.2f)\n\n",
                "", run.batch_cold_s, run.batch_warm_s,
                static_cast<unsigned long long>(run.cache_hits),
                static_cast<unsigned long long>(run.cache_misses),
                run.cache_hit_rate);
    runs.push_back(std::move(run));
  }

  const char* out_path = "BENCH_churn.json";
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"micro_churn\",\n");
  std::fprintf(out, "  \"scale\": \"%s\",\n", bench::ScaleName());
  bench::WriteHostJson(out);
  std::fprintf(out, "  \"initial_peers\": %u,\n  \"wave_peers\": %u,\n",
               initial_peers, wave);
  std::fprintf(out, "  \"leaves_per_wave\": %u,\n  \"docs_per_peer\": %u,\n",
               leave_per_wave, setup.docs_per_peer);
  std::fprintf(out, "  \"batch_queries\": %zu,\n  \"engines\": [\n",
               queries.size());
  for (size_t e = 0; e < runs.size(); ++e) {
    const EngineRun& run = runs[e];
    std::fprintf(out, "    {\"spec\": \"%s\", \"waves\": [\n",
                 run.spec.c_str());
    for (size_t i = 0; i < run.waves.size(); ++i) {
      const WavePoint& p = run.waves[i];
      const double postings_per_event =
          p.events > 0
              ? static_cast<double>(p.postings_moved) /
                    static_cast<double>(p.events)
              : 0.0;
      const double messages_per_event =
          p.events > 0 ? static_cast<double>(p.messages) /
                             static_cast<double>(p.events)
                       : 0.0;
      std::fprintf(out,
                   "      {\"kind\": \"%s\", \"events\": %zu, "
                   "\"peers_after\": %zu, \"seconds\": %.6f, "
                   "\"messages\": %llu, \"postings_moved\": %llu, "
                   "\"postings_per_event\": %.1f, "
                   "\"messages_per_event\": %.1f",
                   p.kind.c_str(), p.events, p.peers_after, p.seconds,
                   static_cast<unsigned long long>(p.messages),
                   static_cast<unsigned long long>(p.postings_moved),
                   postings_per_event, messages_per_event);
      if (p.has_phases) {
        std::fprintf(out,
                     ", \"repair_s\": %.6f, \"diff_s\": %.6f, "
                     "\"reconcile_s\": %.6f",
                     p.repair_s, p.diff_s, p.reconcile_s);
      }
      std::fprintf(out, "}%s\n", i + 1 < run.waves.size() ? "," : "");
    }
    std::fprintf(out,
                 "    ], \"batch_cold_s\": %.6f, \"batch_warm_s\": %.6f, "
                 "\"cache_hits\": %llu, \"cache_misses\": %llu, "
                 "\"cache_hit_rate\": %.4f}%s\n",
                 run.batch_cold_s, run.batch_warm_s,
                 static_cast<unsigned long long>(run.cache_hits),
                 static_cast<unsigned long long>(run.cache_misses),
                 run.cache_hit_rate,
                 e + 1 < runs.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path);
  return 0;
}
