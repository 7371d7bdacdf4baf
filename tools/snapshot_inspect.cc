// snapshot_inspect: dump the header, section table and global-index
// shape of an engine snapshot file, without needing the config or corpus
// it was built from.
//
//   snapshot_inspect [-r N] <file.hdks>
//
// Everything printed comes from the file alone; the same checksum
// validation a load performs runs first, so this doubles as an integrity
// check (`snapshot_inspect file && echo ok`). With -r N (a replication
// factor > 1 — runtime config, not persisted), the writer's overlay is
// reconstructed and each peer's replica-holder load is recomputed from
// the published key hashes, exactly as the engine derives its replicas.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "engine/engine_snapshot.h"

int main(int argc, char** argv) {
  using namespace hdk;
  SetLogLevel(LogLevel::kWarning);

  uint32_t replication = 1;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "-r") == 0 && i + 1 < argc) {
      replication = static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
      if (replication < 1) replication = 1;
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      path = nullptr;
      break;
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr, "usage: %s [-r N] <snapshot.hdks>\n", argv[0]);
    return 2;
  }

  auto described = engine::DescribeEngineSnapshot(path, replication);
  if (!described.ok()) {
    std::fprintf(stderr, "%s: %s\n", path,
                 described.status().ToString().c_str());
    return 1;
  }
  const engine::SnapshotDescription& d = *described;

  std::printf("snapshot %s\n", path);
  std::printf("  format version %" PRIu32 " | %" PRIu64 " bytes\n",
              d.format_version, d.file_size);
  std::printf("  config hash %016" PRIx64 " | store hash %016" PRIx64 "\n",
              d.config_hash, d.store_hash);
  std::printf("  peers %" PRIu64 " | indexed docs %" PRIu64
              " | overlay %s (seed %" PRIu64 ")\n",
              d.num_peers, d.indexed_docs,
              d.overlay_kind == 0 ? "p-grid" : "chord", d.overlay_seed);
  std::printf("  params: DFmax %" PRIu64 " | Ff %" PRIu64 " | window %" PRIu32
              " | smax %" PRIu32 "\n\n",
              d.params.df_max, d.params.very_frequent_threshold,
              d.params.window, d.params.s_max);

  std::printf("%4s %-14s %10s %12s %18s\n", "id", "section", "offset",
              "bytes", "checksum");
  for (const auto& s : d.sections) {
    std::printf("%4" PRIu32 " %-14s %10" PRIu64 " %12" PRIu64 " %18" PRIx64
                "\n",
                s.id, s.name.c_str(), s.offset, s.length, s.checksum);
  }

  // One key table per shard: published postings (an HDK's merged list
  // is its published list), the NDKs' merged lists, the kept lists of
  // locally truncated contributions and the contributor records.
  std::printf("\nglobal index: %zu shard(s)\n", d.shards.size());
  std::printf("%6s %10s %12s %12s %10s %14s\n", "shard", "keys",
              "published", "ndk_merged", "kept", "contributors");
  engine::SnapshotDescription::Shard total;
  for (size_t i = 0; i < d.shards.size(); ++i) {
    const auto& s = d.shards[i];
    std::printf("%6zu %10" PRIu64 " %12" PRIu64 " %12" PRIu64 " %10" PRIu64
                " %14" PRIu64 "\n",
                i, s.keys, s.published_postings, s.ndk_merged_postings,
                s.kept_postings, s.contributor_records);
    total.keys += s.keys;
    total.published_postings += s.published_postings;
    total.ndk_merged_postings += s.ndk_merged_postings;
    total.kept_postings += s.kept_postings;
    total.contributor_records += s.contributor_records;
  }
  const auto mib = [](uint64_t bytes) { return bytes / (1024.0 * 1024.0); };
  std::printf("\ntotal: %" PRIu64 " keys | postings: %" PRIu64
              " published (%.1f MiB), %" PRIu64 " NDK merged (%.1f MiB), %"
              PRIu64 " kept (%.1f MiB) | %" PRIu64
              " contributor records (%.1f MiB)\n",
              total.keys, total.published_postings,
              mib(12 * total.published_postings), total.ndk_merged_postings,
              mib(12 * total.ndk_merged_postings), total.kept_postings,
              mib(12 * total.kept_postings), total.contributor_records,
              mib(8 * total.contributor_records));

  if (!d.replica_keys_per_peer.empty()) {
    std::printf("\nreplica holders (replication %" PRIu32 "):\n",
                d.replication);
    std::printf("%6s %14s\n", "peer", "replica_keys");
    uint64_t total_slots = 0, max_slots = 0;
    for (size_t p = 0; p < d.replica_keys_per_peer.size(); ++p) {
      std::printf("%6zu %14" PRIu64 "\n", p, d.replica_keys_per_peer[p]);
      total_slots += d.replica_keys_per_peer[p];
      if (d.replica_keys_per_peer[p] > max_slots) {
        max_slots = d.replica_keys_per_peer[p];
      }
    }
    const double mean =
        static_cast<double>(total_slots) /
        static_cast<double>(d.replica_keys_per_peer.size());
    std::printf("total %" PRIu64 " replica slots | mean %.1f | max %" PRIu64
                " per peer\n",
                total_slots, mean, max_slots);
  }
  return 0;
}
