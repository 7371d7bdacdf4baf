// Anti-entropy micro-bench: what one RunAntiEntropy() sweep costs, IBF
// set reconciliation vs honest full re-replication, plus a join/leave
// wave sweep where every wave's lossy replica maintenance is healed by
// a sweep.
//
// Part 1 builds a replicated engine under lossy replica pushes and sweeps
// it once: the IBF path must ship >= 5x fewer postings at small
// divergence than full re-replication, which re-ships every holder's
// whole bucket, (replication - 1) x TotalStoredPostings() — that ratio is
// this bench's acceptance assertion, checked at runtime. Part 2
// alternates join and leave waves on the same engine
// and sweeps after each: divergence found, healed to zero, and a second
// sweep confirms nothing is left. Emits BENCH_antientropy.json. (Plain
// main(), no Google Benchmark dependency, like micro_churn.)
//
// Env knobs (see bench_common.h): HDKP2P_BENCH_SCALE=tiny,
// HDKP2P_THREADS.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "engine/experiment.h"
#include "engine/hdk_engine.h"
#include "engine/membership.h"
#include "engine/partition.h"
#include "net/fault.h"
#include "sync/sync.h"

namespace {

using namespace hdk;

struct SweepPoint {
  std::string label;
  uint64_t divergence_before = 0;
  uint64_t divergence_after = 0;
  double seconds = 0;
  sync::SyncStats stats;
};

void PrintSweep(const SweepPoint& p) {
  std::printf("%-12s %12llu %12llu %10.4f %9llu %6llu %13llu %12llu %11llu\n",
              p.label.c_str(),
              static_cast<unsigned long long>(p.divergence_before),
              static_cast<unsigned long long>(p.divergence_after), p.seconds,
              static_cast<unsigned long long>(p.stats.pairs_diverged),
              static_cast<unsigned long long>(p.stats.full_syncs),
              static_cast<unsigned long long>(p.stats.ShippedPostings()),
              static_cast<unsigned long long>(p.stats.sketch_bytes),
              static_cast<unsigned long long>(p.stats.messages));
}

/// One timed RunAntiEntropy() sweep, with the divergence before and
/// after it; prints the row. False (after reporting) if the sweep failed.
bool MeasureSweep(engine::HdkSearchEngine& engine, std::string label,
                  SweepPoint* point) {
  point->label = std::move(label);
  point->divergence_before = engine.global_index().CountReplicaDivergence();
  Stopwatch watch;
  auto sweep = engine.RunAntiEntropy();
  point->seconds = watch.ElapsedSeconds();
  if (!sweep.ok()) {
    std::fprintf(stderr, "sweep failed: %s\n",
                 sweep.status().ToString().c_str());
    return false;
  }
  point->stats = *sweep;
  point->divergence_after = engine.global_index().CountReplicaDivergence();
  PrintSweep(*point);
  return true;
}

void JsonSweep(std::FILE* out, const SweepPoint& p, const char* indent,
               bool last) {
  std::fprintf(
      out,
      "%s{\"label\": \"%s\", \"divergence_before\": %llu, "
      "\"divergence_after\": %llu, \"seconds\": %.6f, "
      "\"pairs_checked\": %llu, \"pairs_diverged\": %llu, "
      "\"shipped_postings\": %llu, \"delta_postings\": %llu, "
      "\"full_postings\": %llu, \"full_syncs\": %llu, "
      "\"dropped_keys\": %llu, \"sketch_bytes\": %llu, "
      "\"messages\": %llu}%s\n",
      indent, p.label.c_str(),
      static_cast<unsigned long long>(p.divergence_before),
      static_cast<unsigned long long>(p.divergence_after), p.seconds,
      static_cast<unsigned long long>(p.stats.pairs_checked),
      static_cast<unsigned long long>(p.stats.pairs_diverged),
      static_cast<unsigned long long>(p.stats.ShippedPostings()),
      static_cast<unsigned long long>(p.stats.delta_postings),
      static_cast<unsigned long long>(p.stats.full_postings),
      static_cast<unsigned long long>(p.stats.full_syncs),
      static_cast<unsigned long long>(p.stats.dropped_keys),
      static_cast<unsigned long long>(p.stats.sketch_bytes),
      static_cast<unsigned long long>(p.stats.messages), last ? "" : ",");
}

}  // namespace

int main() {
  auto setup = bench::SelectSetup();
  bench::Banner(
      "micro_antientropy: IBF replica reconciliation vs full re-replication",
      "replicas drift when maintenance messages are lost; sketches heal "
      "them shipping only the difference");
  bench::PrintSetup(setup);

  const uint32_t initial_peers = setup.initial_peers;
  const uint32_t wave = setup.peer_step;
  const uint32_t leave_per_wave = std::max(1u, wave / 2);
  const uint64_t initial_docs =
      static_cast<uint64_t>(initial_peers) * setup.docs_per_peer;
  const uint64_t total_docs =
      static_cast<uint64_t>(initial_peers + 2 * wave) * setup.docs_per_peer;

  engine::ExperimentContext ctx(setup);
  const corpus::DocumentStore& store = ctx.GrowTo(total_docs);

  auto plan = net::FaultPlan::Parse("seed=7,loss.ReplicaPush=0.05");
  if (!plan.ok()) {
    std::fprintf(stderr, "fault plan: %s\n", plan.status().ToString().c_str());
    return 1;
  }

  engine::EngineConfig config = setup.MakeConfig(setup.DfMaxLow());
  config.replication = 2;
  // The defaults trade sketch size against fallback probability: a
  // strata undershoot on a medium-sized diff under-allocates the IBF,
  // the decode fails and the pair honestly falls back to a full sync.
  // This bench prices the sketch path itself (fallback cost has its own
  // tests), so give every pair enough cells to decode at this scale.
  config.sync.min_cells = 2048;
  config.sync.max_cells = 1u << 16;
  config.faults = *plan;

  // -- Part 1: one sweep over small divergence vs full re-replication ---
  std::printf("%-12s %12s %12s %10s %9s %6s %13s %12s %11s\n", "mode",
              "div_before", "div_after", "seconds", "diverged", "fulls",
              "shipped_post", "sketch_B", "messages");
  auto built = engine::HdkSearchEngine::Build(
      config, store, engine::SplitEvenly(initial_docs, initial_peers));
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<engine::HdkSearchEngine> ibf_engine =
      std::move(built).value();
  SweepPoint ibf;
  if (!MeasureSweep(*ibf_engine, "ibf", &ibf)) return 1;
  if (ibf.divergence_before == 0 || ibf.divergence_after != 0) {
    std::fprintf(stderr,
                 "acceptance failed: expected divergence healed "
                 "(before %llu, after %llu)\n",
                 static_cast<unsigned long long>(ibf.divergence_before),
                 static_cast<unsigned long long>(ibf.divergence_after));
    return 1;
  }
  const uint64_t ibf_postings = ibf.stats.ShippedPostings();
  const uint64_t full_postings =
      (config.replication - 1) *
      ibf_engine->global_index().TotalStoredPostings();
  std::printf("%-12s %12s %12s %10s %9s %6s %13llu\n", "full", "", "", "",
              "", "", static_cast<unsigned long long>(full_postings));
  if (ibf_postings * 5 > full_postings) {
    std::fprintf(stderr,
                 "acceptance failed: IBF shipped %llu postings, full sync "
                 "%llu — expected >= 5x savings at small divergence\n",
                 static_cast<unsigned long long>(ibf_postings),
                 static_cast<unsigned long long>(full_postings));
    return 1;
  }
  std::printf("IBF ships %.1fx fewer postings than full re-replication\n\n",
              static_cast<double>(full_postings) /
                  static_cast<double>(std::max<uint64_t>(ibf_postings, 1)));

  // -- Part 2: join/leave wave sweep on the same engine ----------------
  std::printf("%-12s %12s %12s %10s %9s %6s %13s %12s %11s\n", "wave",
              "div_before", "div_after", "seconds", "diverged", "fulls",
              "shipped_post", "sketch_B", "messages");
  std::vector<SweepPoint> waves;
  DocId frontier = static_cast<DocId>(initial_docs);
  for (int cycle = 0; cycle < 2; ++cycle) {
    const std::vector<engine::MembershipEvent> joins =
        engine::JoinWave(frontier, wave, setup.docs_per_peer);
    frontier += static_cast<DocId>(wave) * setup.docs_per_peer;
    std::vector<engine::MembershipEvent> leaves;
    for (uint32_t i = 0; i < leave_per_wave; ++i) {
      leaves.push_back(
          engine::MembershipEvent::Leave(static_cast<PeerId>(1 + i)));
    }
    const struct {
      const char* kind;
      const std::vector<engine::MembershipEvent>* events;
    } steps[] = {{"join", &joins}, {"leave", &leaves}};
    for (const auto& step : steps) {
      Status st = ibf_engine->ApplyMembership(store, *step.events);
      if (!st.ok()) {
        std::fprintf(stderr, "%s wave failed: %s\n", step.kind,
                     st.ToString().c_str());
        return 1;
      }
      SweepPoint point;
      if (!MeasureSweep(*ibf_engine,
                        std::string(step.kind) + std::to_string(cycle + 1),
                        &point)) {
        return 1;
      }
      if (point.divergence_after != 0) {
        std::fprintf(stderr, "acceptance failed: wave %s left %llu "
                             "divergent slots after the sweep\n",
                     point.label.c_str(),
                     static_cast<unsigned long long>(point.divergence_after));
        return 1;
      }
      auto second = ibf_engine->RunAntiEntropy();
      if (!second.ok() || second->pairs_diverged != 0 ||
          second->ShippedPostings() != 0) {
        std::fprintf(stderr,
                     "acceptance failed: second sweep after %s still found "
                     "work\n",
                     point.label.c_str());
        return 1;
      }
      waves.push_back(point);
    }
  }

  const char* out_path = "BENCH_antientropy.json";
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"micro_antientropy\",\n");
  std::fprintf(out, "  \"scale\": \"%s\",\n", bench::ScaleName());
  bench::WriteHostJson(out);
  std::fprintf(out,
               "  \"initial_peers\": %u,\n  \"wave_peers\": %u,\n"
               "  \"leaves_per_wave\": %u,\n  \"docs_per_peer\": %u,\n"
               "  \"replication\": 2,\n"
               "  \"push_loss\": 0.05,\n",
               initial_peers, wave, leave_per_wave, setup.docs_per_peer);
  std::fprintf(out, "  \"ibf_vs_full_postings_ratio\": %.2f,\n",
               static_cast<double>(full_postings) /
                   static_cast<double>(std::max<uint64_t>(ibf_postings, 1)));
  std::fprintf(out, "  \"full_postings\": %llu,\n  \"ibf\":\n",
               static_cast<unsigned long long>(full_postings));
  JsonSweep(out, ibf, "    ", /*last=*/false);
  std::fprintf(out, "  \"waves\": [\n");
  for (size_t i = 0; i < waves.size(); ++i) {
    JsonSweep(out, waves[i], "    ", i + 1 == waves.size());
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path);
  return 0;
}
