// Overload / tail-latency bench: what the armor layer buys against a
// slow-but-alive replica holder, and what admission control sheds.
//
// Scenario: replication = 2, every key probe draws a little injected
// latency, and ONE peer is a straggler — every leg addressed to it draws
// up to 64 simulated ticks. Four rows over identical fresh builds:
//
//   baseline   plain failover walk (waits out the straggler),
//   +hedge     hedged replica reads (hedge_delay_ticks = 4),
//   +breaker   latency-EWMA circuit breaker (trip at 16 ticks),
//   +both      hedges over the breaker's failover order.
//
// The row metric is the per-query SIMULATED latency (QueryCost::
// latency_ticks) p50/p99 — injected ticks, not wall clock, so the numbers
// are deterministic and machine-independent. HARD FAILS:
//   * the +hedge row's p99 must be >= 2x lower than baseline's,
//   * the +hedge row must have ZERO degraded responses (a healthy
//     replica survives every hedge),
//   * the admission gate must shed ZERO queries below its threshold, and
//     over the threshold every shed query must be explicitly flagged —
//     never silently dropped.
//
// Env knobs (see bench_common.h): HDKP2P_BENCH_SCALE=tiny,
// HDKP2P_THREADS.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/search_options.h"
#include "engine/hdk_engine.h"
#include "engine/partition.h"
#include "net/breaker.h"
#include "net/fault.h"

namespace {

struct Row {
  const char* name = "";
  double p50_ticks = 0.0;
  double p99_ticks = 0.0;
  unsigned long long latency_ticks = 0;
  unsigned long long hedges_fired = 0;
  unsigned long long hedge_wins = 0;
  unsigned long long breaker_short_circuits = 0;
  unsigned long long failovers = 0;
  unsigned long long degraded = 0;
};

/// One row: a fresh identical build (so breaker state and the origin
/// rotation never leak between rows), then the whole query batch one
/// query at a time — breakers are cross-query state, so the stream is
/// serial by construction. Origins rotate over the peers SKIPPING the
/// straggler: a slow requester drags every response leg addressed to it,
/// which no holder-side armor can hedge away (and would falsely charge
/// the origin's slowness to innocent holders' latency EWMAs).
Row RunRow(const char* name, const hdk::engine::HdkEngineConfig& config,
           const hdk::corpus::DocumentStore& store, uint32_t peers,
           uint64_t docs, const std::vector<hdk::corpus::Query>& queries,
           size_t top_k, const hdk::SearchOptions& options,
           hdk::PeerId slow) {
  using namespace hdk;
  auto built = engine::HdkSearchEngine::Build(
      config, store, engine::SplitEvenly(docs, peers));
  if (!built.ok()) {
    std::fprintf(stderr, "%s build failed: %s\n", name,
                 built.status().ToString().c_str());
    std::exit(1);
  }
  auto engine = std::move(built).value();

  Row row;
  row.name = name;
  std::vector<uint64_t> per_query;
  per_query.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto origin = static_cast<PeerId>(i % engine->num_peers());
    if (origin == slow) {
      origin = static_cast<PeerId>((origin + 1) % engine->num_peers());
    }
    auto response =
        engine->Search(queries[i].terms, top_k, options, origin);
    per_query.push_back(response.cost.latency_ticks);
    row.latency_ticks += response.cost.latency_ticks;
    row.hedges_fired += response.cost.hedges_fired;
    row.hedge_wins += response.cost.hedge_wins;
    row.breaker_short_circuits += response.cost.breaker_short_circuits;
    row.failovers += response.cost.failovers;
    row.degraded += response.degraded ? 1 : 0;
  }
  row.p50_ticks = bench::Percentile(per_query, 0.50);
  row.p99_ticks = bench::Percentile(per_query, 0.99);
  return row;
}

}  // namespace

int main() {
  using namespace hdk;

  auto setup = bench::SelectSetup();
  bench::Banner(
      "micro_overload: tail latency armor against a slow replica holder",
      "deadline budgets, hedged replica reads, circuit breakers and "
      "admission control over the deterministic fault transport");
  bench::PrintSetup(setup);


  const uint32_t peers = setup.max_peers;
  const uint64_t docs = static_cast<uint64_t>(peers) * setup.docs_per_peer;
  engine::ExperimentContext ctx(setup);
  const corpus::DocumentStore& store = ctx.GrowTo(docs);
  const std::vector<corpus::Query> queries =
      ctx.MakeQueries(docs, setup.num_queries);

  const PeerId slow = peers / 2;
  engine::HdkEngineConfig config;
  config.hdk = setup.MakeParams(setup.DfMaxLow());
  config.overlay = setup.overlay;
  config.overlay_seed = setup.overlay_seed;
  config.num_threads = setup.num_threads;
  config.replication = 2;
  {
    auto plan = net::FaultPlan::Parse(
        "seed=7,latency.KeyProbe=2,latency@" + std::to_string(slow) + "=64");
    if (!plan.ok()) {
      std::fprintf(stderr, "plan: %s\n", plan.status().ToString().c_str());
      return 1;
    }
    config.faults = *plan;
  }

  std::printf("peers %u | docs %llu | %zu queries | slow holder: peer %u "
              "(<=64 ticks/leg; everyone else <=2)\n\n",
              peers, static_cast<unsigned long long>(docs), queries.size(),
              static_cast<unsigned>(slow));

  engine::HdkEngineConfig breaker_config = config;
  breaker_config.breaker.enabled = true;
  breaker_config.breaker.latency_trip_ticks = 16.0;
  breaker_config.breaker.failure_threshold = 2;
  breaker_config.breaker.open_cooldown = 8;

  SearchOptions plain;
  SearchOptions hedged;
  hedged.hedge_delay_ticks = 4;

  std::vector<Row> rows;
  rows.push_back(RunRow("baseline", config, store, peers, docs, queries,
                        setup.top_k, plain, slow));
  rows.push_back(RunRow("+hedge", config, store, peers, docs, queries,
                        setup.top_k, hedged, slow));
  rows.push_back(RunRow("+breaker", breaker_config, store, peers, docs,
                        queries, setup.top_k, plain, slow));
  rows.push_back(RunRow("+both", breaker_config, store, peers, docs,
                        queries, setup.top_k, hedged, slow));

  std::printf("%10s %10s %10s %8s %8s %8s %9s %9s\n", "row", "p50_ticks",
              "p99_ticks", "hedges", "wins", "shortc", "failovers",
              "degraded");
  for (const Row& row : rows) {
    std::printf("%10s %10.0f %10.0f %8llu %8llu %8llu %9llu %9llu\n",
                row.name, row.p50_ticks, row.p99_ticks, row.hedges_fired,
                row.hedge_wins, row.breaker_short_circuits, row.failovers,
                row.degraded);
  }

  const Row& baseline = rows[0];
  const Row& hedge_row = rows[1];
  // HARD FAIL: hedging must cut the simulated p99 at least 2x against
  // the straggler, and must never degrade a query whose replica is
  // healthy.
  if (hedge_row.degraded != 0) {
    std::fprintf(stderr,
                 "\nFAIL: %llu degraded hedged responses with a healthy "
                 "replica\n",
                 hedge_row.degraded);
    return 1;
  }
  if (hedge_row.p99_ticks * 2.0 > baseline.p99_ticks) {
    std::fprintf(stderr,
                 "\nFAIL: hedged p99 %.0f ticks is not >=2x below "
                 "baseline p99 %.0f ticks\n",
                 hedge_row.p99_ticks, baseline.p99_ticks);
    return 1;
  }

  // Admission control: below the threshold nothing sheds; over it the
  // excess is shed lowest-priority-first and every victim is flagged.
  engine::HdkEngineConfig gated_config = config;
  const uint32_t admit =
      static_cast<uint32_t>(std::max<size_t>(queries.size() / 2, 1));
  gated_config.admission.max_batch_queries = admit;
  auto gated = engine::HdkSearchEngine::Build(
      gated_config, store, engine::SplitEvenly(docs, peers));
  if (!gated.ok()) {
    std::fprintf(stderr, "gated build failed: %s\n",
                 gated.status().ToString().c_str());
    return 1;
  }
  const std::vector<corpus::Query> under(queries.begin(),
                                         queries.begin() + admit);
  auto under_batch = (*gated)->SearchBatch(under, setup.top_k);
  if (under_batch.total.shed != 0) {
    std::fprintf(stderr,
                 "\nFAIL: %llu queries shed below the admission "
                 "threshold (%u of %u admitted)\n",
                 static_cast<unsigned long long>(under_batch.total.shed),
                 static_cast<unsigned>(under.size()), admit);
    return 1;
  }
  auto over_batch = (*gated)->SearchBatch(queries, setup.top_k);
  const uint64_t expected_shed = queries.size() - admit;
  uint64_t flagged = 0;
  for (const auto& response : over_batch.responses) {
    flagged += response.shed ? 1 : 0;
  }
  if (over_batch.total.shed != expected_shed || flagged != expected_shed ||
      over_batch.responses.size() != queries.size()) {
    std::fprintf(stderr,
                 "\nFAIL: over-threshold batch shed %llu (flagged %llu) "
                 "of expected %llu — shedding must be explicit, never a "
                 "silent drop\n",
                 static_cast<unsigned long long>(over_batch.total.shed),
                 static_cast<unsigned long long>(flagged),
                 static_cast<unsigned long long>(expected_shed));
    return 1;
  }
  std::printf("\nadmission: %u/%zu admitted -> %llu shed, all flagged; "
              "below threshold -> 0 shed\n",
              admit, queries.size(),
              static_cast<unsigned long long>(expected_shed));

  const char* out_path = "BENCH_overload.json";
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"micro_overload\",\n");
  std::fprintf(out, "  \"scale\": \"%s\",\n", bench::ScaleName());
  bench::WriteHostJson(out);
  std::fprintf(out, "  \"num_peers\": %u,\n  \"num_docs\": %llu,\n", peers,
               static_cast<unsigned long long>(docs));
  std::fprintf(out, "  \"num_queries\": %zu,\n", queries.size());
  std::fprintf(out, "  \"slow_peer\": %u,\n  \"replication\": 2,\n",
               static_cast<unsigned>(slow));
  std::fprintf(out, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"row\": \"%s\", \"p50_ticks\": %.0f, "
                 "\"p99_ticks\": %.0f, \"latency_ticks\": %llu, "
                 "\"hedges_fired\": %llu, \"hedge_wins\": %llu, "
                 "\"breaker_short_circuits\": %llu, \"failovers\": %llu, "
                 "\"degraded\": %llu}%s\n",
                 r.name, r.p50_ticks, r.p99_ticks, r.latency_ticks,
                 r.hedges_fired, r.hedge_wins, r.breaker_short_circuits,
                 r.failovers, r.degraded,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"p99_speedup_hedge\": %.2f,\n",
               hedge_row.p99_ticks > 0.0
                   ? baseline.p99_ticks / hedge_row.p99_ticks
                   : 0.0);
  std::fprintf(out,
               "  \"admission\": {\"max_batch_queries\": %u, "
               "\"under_threshold_shed\": %llu, \"over_threshold_shed\": "
               "%llu, \"all_flagged\": true}\n}\n",
               admit,
               static_cast<unsigned long long>(under_batch.total.shed),
               static_cast<unsigned long long>(expected_shed));
  std::fclose(out);
  std::printf("wrote %s\n", out_path);
  return 0;
}
