// Thread-scaling sweep of the three engines' build and SearchBatch, with
// the HDK build split into its two phases.
//
// For every thread count in the sweep the bench measures
//
//   * per engine (hdk, single-term, centralized): the full build and a
//     1000-query SearchBatch over it, each checked bit-identical to the
//     serial run (index size and batch fingerprint; for hdk the exported
//     global index),
//   * the HDK build split into its scan phase (parallel per-peer
//     candidate scans incl. shard-buffered insertions) and its merge phase
//     (shard-parallel EndLevel),
//   * one growth wave: a network one wave short of the full size is built
//     and grown (exercising the level-3 per-fresh-pair delta walk); the
//     grown index must equal the full build, and grow_s against the full
//     build_s is the delta-walk growth speedup.
//
// The HDK contents and batch fingerprints are also asserted against the
// golden values of the scale (captured on the pre-flat-map code, so they
// pin every posting, score bit and cost counter); any mismatch exits
// non-zero. Emits BENCH_shard.json.
//
// Env knobs (see bench_common.h): HDKP2P_BENCH_SCALE=tiny, and
// HDKP2P_SHARD_THREADS to override the "1,2,4,8" sweep list.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "engine/engine_factory.h"
#include "engine/hdk_engine.h"
#include "engine/membership.h"
#include "engine/partition.h"

namespace {

using namespace hdk;

/// Golden HDK fingerprints per scale: the serial-reference build at
/// DFmax low over all max_peers peers, and its 1000-query batch.
struct Golden {
  uint64_t contents_fp;
  uint64_t batch_fp;
};

constexpr Golden kTinyGolden = {9975936348412760733ULL,
                                12651378162075581717ULL};
constexpr Golden kDefaultGolden = {1306709421011575129ULL,
                                   18029302406425560166ULL};

constexpr size_t kNumEngines = engine::kAllEngineKinds.size();

std::string EngineName(size_t e) {
  return std::string(engine::EngineKindName(engine::kAllEngineKinds[e]));
}

/// One engine's build + batch at one thread count.
struct Timing {
  double build_s = 0;
  double batch_s = 0;
};

struct Point {
  size_t threads = 0;
  size_t shards = 0;
  Timing engines[kNumEngines];  // in kAllEngineKinds order; hdk first
  double scan_s = 0;
  double merge_s = 0;
  double grow_s = 0;
};

/// What the serial run produced; every later thread count must match.
/// Per engine in kAllEngineKinds order; contents_fp is hdk-only.
struct Reference {
  double stored[kNumEngines] = {};
  uint64_t batch_fp[kNumEngines] = {};
  uint64_t contents_fp[kNumEngines] = {};
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

int main() {
  auto setup = bench::SelectSetup();
  bench::Banner(
      "micro_shard: thread scaling of build and SearchBatch for all "
      "engines, the sharded HDK merge path and the growth wave",
      "parallel fan-out and key-hash shards are bit-identical to serial; "
      "a grown network equals a from-scratch build");
  bench::PrintSetup(setup);

  // The full network is rebuilt at every thread count; the growth wave
  // joins the last peer_step peers onto the network without them.
  const uint32_t peers = setup.max_peers;
  const uint32_t grow_peers =
      setup.peer_step < setup.max_peers ? setup.peer_step : 0;
  const uint32_t base_peers = peers - grow_peers;
  const uint64_t docs = static_cast<uint64_t>(peers) * setup.docs_per_peer;
  const uint64_t base_docs =
      static_cast<uint64_t>(base_peers) * setup.docs_per_peer;

  engine::ExperimentContext ctx(setup);
  const corpus::DocumentStore& store = ctx.GrowTo(docs);
  const std::vector<corpus::Query> queries = ctx.MakeQueries(docs, 1000);
  const auto ranges = engine::SplitEvenly(docs, peers);
  const std::vector<size_t> sweep = bench::ThreadSweep("HDKP2P_SHARD_THREADS");
  const Golden& golden = bench::TinyScale() ? kTinyGolden : kDefaultGolden;

  std::printf("hardware threads: %zu | %u peers / %llu docs | growth wave "
              "%u peers | batch %zu queries\n\n",
              ThreadPool::HardwareThreads(), peers,
              static_cast<unsigned long long>(docs), grow_peers,
              queries.size());
  std::printf("%8s %-12s %7s %9s %9s %9s %9s %9s %8s %8s\n", "threads",
              "engine", "shards", "build_s", "scan_s", "merge_s", "batch_s",
              "grow_s", "build_x", "batch_x");

  std::vector<Point> points;
  Reference ref;
  for (size_t threads : sweep) {
    engine::EngineConfig config = setup.MakeConfig(setup.DfMaxLow());
    config.num_threads = threads;

    Point p;
    p.threads = threads;
    bool identical = true;
    for (size_t e = 0; e < kNumEngines; ++e) {
      const engine::EngineKind kind = engine::kAllEngineKinds[e];
      Stopwatch build_watch;
      auto built = engine::MakeEngine(kind, config, store, ranges);
      if (!built.ok()) {
        std::fprintf(stderr, "build failed: %s\n",
                     built.status().ToString().c_str());
        return 1;
      }
      p.engines[e].build_s = build_watch.ElapsedSeconds();
      Stopwatch batch_watch;
      const engine::BatchResponse batch =
          (*built)->SearchBatch(queries, setup.top_k);
      p.engines[e].batch_s = batch_watch.ElapsedSeconds();

      const double stored = (*built)->StoredPostingsPerPeer();
      const uint64_t batch_fp = bench::FingerprintBatch(batch);
      uint64_t contents_fp = 0;
      if (kind == engine::EngineKind::kHdk) {
        const auto& hdk_engine =
            dynamic_cast<const engine::HdkSearchEngine&>(**built);
        contents_fp = bench::FingerprintContents(
            hdk_engine.global_index().ExportContents());
        p.shards = hdk_engine.global_index().num_shards();
        p.scan_s = hdk_engine.phase_timings().scan_seconds;
        p.merge_s = hdk_engine.phase_timings().merge_seconds;
      }
      if (threads == 1) {
        ref.stored[e] = stored;
        ref.batch_fp[e] = batch_fp;
        ref.contents_fp[e] = contents_fp;
      }
      if (stored != ref.stored[e] || batch_fp != ref.batch_fp[e] ||
          contents_fp != ref.contents_fp[e]) {
        std::fprintf(stderr, "DETERMINISM VIOLATION at %zu threads for %s\n",
                     threads, EngineName(e).c_str());
        identical = false;
      }
    }

    // Growth wave: base network + one join wave must equal the full build.
    auto base = engine::HdkSearchEngine::Build(
        config, store, engine::SplitEvenly(base_docs, base_peers));
    if (!base.ok()) {
      std::fprintf(stderr, "base build failed: %s\n",
                   base.status().ToString().c_str());
      return 1;
    }
    Stopwatch grow_watch;
    const auto wave = engine::JoinWave(static_cast<DocId>(base_docs),
                                       grow_peers, setup.docs_per_peer);
    if (grow_peers > 0 && !(*base)->ApplyMembership(store, wave).ok()) {
      std::fprintf(stderr, "growth wave failed\n");
      return 1;
    }
    p.grow_s = grow_watch.ElapsedSeconds();
    if (bench::FingerprintContents(
            (*base)->global_index().ExportContents()) != ref.contents_fp[0]) {
      std::fprintf(stderr, "GROWN != REBUILT at %zu threads\n", threads);
      identical = false;
    }
    points.push_back(p);

    const Point& serial = points.front();
    for (size_t e = 0; e < kNumEngines; ++e) {
      const Timing& t = p.engines[e];
      const double build_x = Ratio(serial.engines[e].build_s, t.build_s);
      const double batch_x = Ratio(serial.engines[e].batch_s, t.batch_s);
      if (e == 0) {
        std::printf("%8zu %-12s %7zu %9.3f %9.3f %9.3f %9.3f %9.3f %7.2fx "
                    "%7.2fx\n",
                    threads, EngineName(e).c_str(), p.shards, t.build_s,
                    p.scan_s, p.merge_s, t.batch_s, p.grow_s, build_x,
                    batch_x);
      } else {
        std::printf("%8zu %-12s %7s %9.3f %9s %9s %9.3f %9s %7.2fx %7.2fx\n",
                    threads, EngineName(e).c_str(), "", t.build_s, "", "",
                    t.batch_s, "", build_x, batch_x);
      }
    }
    std::printf("%8s identical to serial%s: %s\n\n", "",
                grow_peers > 0 ? " and grown == rebuilt" : "",
                identical ? "yes" : "NO");
    if (!identical) return 1;
  }

  const bool golden_ok = ref.contents_fp[0] == golden.contents_fp &&
                         ref.batch_fp[0] == golden.batch_fp;
  std::printf("hdk contents_fp %llu | batch_fp %llu | golden (%s): %s\n",
              static_cast<unsigned long long>(ref.contents_fp[0]),
              static_cast<unsigned long long>(ref.batch_fp[0]),
              bench::ScaleName(),
              golden_ok ? "yes" : "NO");
  if (!golden_ok) {
    std::fprintf(stderr,
                 "GOLDEN FINGERPRINT MISMATCH (contents want %llu, batch "
                 "want %llu)\n",
                 static_cast<unsigned long long>(golden.contents_fp),
                 static_cast<unsigned long long>(golden.batch_fp));
    return 1;
  }

  const char* out_path = "BENCH_shard.json";
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"micro_shard\",\n");
  std::fprintf(out, "  \"scale\": \"%s\",\n", bench::ScaleName());
  bench::WriteHostJson(out);
  std::fprintf(out, "  \"num_peers\": %u,\n  \"num_docs\": %llu,\n", peers,
               static_cast<unsigned long long>(docs));
  std::fprintf(out, "  \"growth_peers\": %u,\n  \"batch_queries\": %zu,\n",
               grow_peers, queries.size());
  std::fprintf(out,
               "  \"contents_fingerprint\": %llu,\n"
               "  \"batch_fingerprint\": %llu,\n  \"points\": [\n",
               static_cast<unsigned long long>(ref.contents_fp[0]),
               static_cast<unsigned long long>(ref.batch_fp[0]));
  const Point& serial = points.front();
  for (size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::fprintf(out, "    {\"threads\": %zu, \"shards\": %zu,\n", p.threads,
                 p.shards);
    for (size_t e = 0; e < kNumEngines; ++e) {
      const Timing& t = p.engines[e];
      std::fprintf(out,
                   "     \"%s\": {\"build_s\": %.6f, \"batch_s\": %.6f, "
                   "\"build_speedup\": %.3f, \"batch_speedup\": %.3f",
                   EngineName(e).c_str(), t.build_s, t.batch_s,
                   Ratio(serial.engines[e].build_s, t.build_s),
                   Ratio(serial.engines[e].batch_s, t.batch_s));
      if (e == 0) {
        std::fprintf(out,
                     ",\n       \"scan_s\": %.6f, \"merge_s\": %.6f, "
                     "\"scan_speedup\": %.3f, \"merge_speedup\": %.3f,\n"
                     "       \"grow_s\": %.6f, \"delta_growth_speedup\": "
                     "%.3f",
                     p.scan_s, p.merge_s, Ratio(serial.scan_s, p.scan_s),
                     Ratio(serial.merge_s, p.merge_s), p.grow_s,
                     Ratio(t.build_s, p.grow_s));
      }
      std::fprintf(out, "}%s\n", e + 1 < kNumEngines ? "," : "");
    }
    std::fprintf(out, "    }%s\n", i + 1 < points.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path);
  return 0;
}
