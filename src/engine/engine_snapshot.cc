#include "engine/engine_snapshot.h"

#include <algorithm>
#include <cassert>
#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <string_view>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/hash.h"
#include "engine/overlay_factory.h"
#include "engine/partition.h"
#include "dht/chord.h"
#include "dht/pgrid.h"
#include "hdk/candidate_builder.h"
#include "hdk/key.h"
#include "index/posting.h"
#include "net/traffic.h"
#include "p2p/global_index.h"
#include "p2p/peer.h"
#include "store/snapshot_reader.h"
#include "store/snapshot_writer.h"

namespace hdk::engine {
namespace {

using store::SectionCursor;
using store::SectionId;
using store::SnapshotReader;
using store::SnapshotWriter;

// The bulk array paths memcpy these types straight into the file, so
// their layout is part of the wire format: no padding bytes, stable field
// order. A failing assert here means the format version must be bumped.
static_assert(std::is_trivially_copyable_v<hdk::TermKey> &&
                  sizeof(hdk::TermKey) == 28,
              "TermKey is part of the snapshot wire format");
static_assert(std::is_trivially_copyable_v<index::Posting> &&
                  sizeof(index::Posting) == 12,
              "Posting is part of the snapshot wire format");
static_assert(std::is_trivially_copyable_v<net::TrafficCounters> &&
                  sizeof(net::TrafficCounters) == 32,
              "TrafficCounters is part of the snapshot wire format");
static_assert(std::is_trivially_copyable_v<hdk::CandidateBuildStats> &&
                  sizeof(hdk::CandidateBuildStats) == 32,
              "CandidateBuildStats is part of the snapshot wire format");

// --- flat-container helpers: dense arrays ARE the wire layout ------------

void WriteTermIdSet(SnapshotWriter& w, const TermIdSet& set) {
  w.WriteArray(set.raw_keys());
  w.WriteArray(set.raw_hashes());
}

Status ReadTermIdSet(SectionCursor& cur, TermIdSet* out) {
  std::vector<TermId> keys;
  std::vector<uint64_t> hashes;
  HDK_RETURN_NOT_OK(cur.ReadArray(&keys));
  HDK_RETURN_NOT_OK(cur.ReadArray(&hashes));
  if (keys.size() != hashes.size()) {
    return Status::IOError("snapshot: term set key/hash arrays disagree");
  }
  out->AdoptRaw(std::move(keys), std::move(hashes));
  return Status::OK();
}

void WriteKeySet(SnapshotWriter& w, const hdk::KeySet& set) {
  w.WriteArray(set.raw_keys());
  w.WriteArray(set.raw_hashes());
}

Status ReadKeySet(SectionCursor& cur, hdk::KeySet* out) {
  std::vector<hdk::TermKey> keys;
  std::vector<uint64_t> hashes;
  HDK_RETURN_NOT_OK(cur.ReadArray(&keys));
  HDK_RETURN_NOT_OK(cur.ReadArray(&hashes));
  if (keys.size() != hashes.size()) {
    return Status::IOError("snapshot: key set key/hash arrays disagree");
  }
  out->AdoptRaw(std::move(keys), std::move(hashes));
  return Status::OK();
}

/// KeyMap<V> wire form is columnar: the cached-hash array and the raw
/// TermKey array first (both bulk), then the value payload decomposed
/// into per-field bulk columns by the map-specific writer below. The
/// default-scale global index holds >1M keys, so per-entry framing would
/// mean millions of small bounds-checked reads; columns decode as a
/// handful of memcpys plus one linear slicing pass. Reading adopts the
/// rebuilt pair vector together with the saved hashes — the zero-rehash
/// path.
template <typename V>
void WriteKeyMapKeys(SnapshotWriter& w, const hdk::KeyMap<V>& map) {
  w.WriteArray(map.raw_hashes());
  std::vector<hdk::TermKey> keys;
  keys.reserve(map.size());
  for (const auto& [key, value] : map) {
    keys.push_back(key);
  }
  w.WriteArray(keys);
}

Status ReadKeyMapKeys(SectionCursor& cur, std::vector<hdk::TermKey>* keys,
                      std::vector<uint64_t>* hashes) {
  HDK_RETURN_NOT_OK(cur.ReadArray(hashes));
  HDK_RETURN_NOT_OK(cur.ReadArray(keys));
  if (keys->size() != hashes->size()) {
    return Status::IOError("snapshot: key/hash columns disagree");
  }
  return Status::OK();
}

/// One slice of a concatenated posting column: `count` was read from the
/// per-entry count column, the bytes sit back to back in the cursor.
/// The list BORROWS the mapped bytes (no allocation, no copy); the
/// loaded engine keeps the snapshot mapping alive for its lifetime, and
/// any mutation copies-on-write (see index::PostingList).
///
/// Posting columns are 4-byte aligned by construction: section payloads
/// start 8-byte aligned and every column is a multiple of 4 bytes.
static_assert(alignof(index::Posting) == 4,
              "posting-blob alignment argument above assumes this");

Status ReadPostingSlice(SectionCursor& cur, uint32_t count,
                        index::PostingList* out) {
  const uint8_t* bytes = nullptr;
  HDK_RETURN_NOT_OK(
      cur.ReadView(uint64_t{count} * sizeof(index::Posting), &bytes));
  assert(reinterpret_cast<uintptr_t>(bytes) % alignof(index::Posting) == 0);
  *out = index::PostingList::Borrowed(std::span<const index::Posting>(
      reinterpret_cast<const index::Posting*>(bytes), count));
  return Status::OK();
}

// --- columnar writer / reader for a shard's key table --------------------

using KeyTable = hdk::KeyMap<p2p::DistributedGlobalIndex::Published>;
using Ledger = p2p::DistributedGlobalIndex::Ledger;

void WritePostingBlob(SnapshotWriter& w, const index::PostingList& list) {
  const auto postings = list.postings();
  w.WriteBytes(postings.data(), postings.size() * sizeof(index::Posting));
}

/// One shard's key table, written once: the keys, then the count
/// columns (contributors, global dfs, owners, published, NDK merged and
/// kept list lengths), then each key's lists back to back — published,
/// NDK merged, kept. An HDK's merged list is its published list, so it
/// is not written twice.
void WriteKeyTable(SnapshotWriter& w, const KeyTable& keys,
                   const std::vector<Ledger>& ledger) {
  WriteKeyMapKeys(w, keys);
  std::vector<uint32_t> contrib_counts, contrib_peers, contrib_dfs, owners,
      counts, merged_counts, kept_index, kept_counts;
  std::vector<uint64_t> dfs;
  for (size_t i = 0; i < keys.size(); ++i) {
    const hdk::KeyEntry& entry = keys.entry(i).second.entry;
    const Ledger& side = ledger[i];
    contrib_counts.push_back(static_cast<uint32_t>(side.contributors.size()));
    auto kept = side.kept.begin();
    for (const auto& c : side.contributors) {
      if (kept != side.kept.end() && kept->peer == c.peer) {
        kept_index.push_back(static_cast<uint32_t>(contrib_peers.size()));
        kept_counts.push_back(static_cast<uint32_t>((kept++)->full.size()));
      }
      contrib_peers.push_back(c.peer);
      contrib_dfs.push_back(c.local_df);
    }
    dfs.push_back(entry.global_df);
    owners.push_back(keys.entry(i).second.owner);
    counts.push_back(static_cast<uint32_t>(entry.postings.size()));
    if (!entry.is_hdk) {
      merged_counts.push_back(static_cast<uint32_t>(side.merged.size()));
    }
  }
  for (const auto* column : {&contrib_counts, &contrib_peers, &contrib_dfs}) {
    w.WriteArray(*column);
  }
  w.WriteArray(dfs);
  for (const auto* column :
       {&owners, &counts, &merged_counts, &kept_index, &kept_counts}) {
    w.WriteArray(*column);
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    const hdk::KeyEntry& entry = keys.entry(i).second.entry;
    WritePostingBlob(w, entry.postings);
    if (!entry.is_hdk) WritePostingBlob(w, ledger[i].merged);
    for (const auto& kept : ledger[i].kept) WritePostingBlob(w, kept.full);
  }
}

/// Counterpart of WriteKeyTable. Beyond the layout it checks what the
/// engine relies on: contributor ids below `num_peers` and ascending,
/// local dfs summing to the global df, a kept list exactly for each local
/// df above `df_max` and as long as it, and owners below `num_peers`.
Status ReadKeyTable(SectionCursor& cur, uint64_t df_max, uint64_t num_peers,
                    KeyTable* keys_out, std::vector<Ledger>* ledger) {
  std::vector<hdk::TermKey> keys;
  std::vector<uint64_t> hashes;
  HDK_RETURN_NOT_OK(ReadKeyMapKeys(cur, &keys, &hashes));
  const size_t n = keys.size();
  std::vector<uint32_t> contrib_counts, contrib_peers, contrib_dfs, owners,
      counts, merged_counts, kept_index, kept_counts;
  std::vector<uint64_t> dfs;
  for (auto* column : {&contrib_counts, &contrib_peers, &contrib_dfs}) {
    HDK_RETURN_NOT_OK(cur.ReadArray(column));
  }
  HDK_RETURN_NOT_OK(cur.ReadArray(&dfs));
  for (auto* column :
       {&owners, &counts, &merged_counts, &kept_index, &kept_counts}) {
    HDK_RETURN_NOT_OK(cur.ReadArray(column));
  }
  if (contrib_counts.size() != n || contrib_dfs.size() != contrib_peers.size() ||
      dfs.size() != n || owners.size() != n || counts.size() != n ||
      kept_counts.size() != kept_index.size()) {
    return Status::IOError("snapshot: key table column sizes disagree");
  }
  // reserve + emplace, not resize: these run to millions of entries, and
  // value-initializing them only to overwrite every field is a second
  // full pass over hundreds of megabytes.
  std::vector<std::pair<hdk::TermKey, p2p::DistributedGlobalIndex::Published>>
      entries;
  entries.reserve(n);
  ledger->clear();
  ledger->reserve(n);
  size_t next = 0, ndk = 0, kept = 0;
  for (size_t i = 0; i < n; ++i) {
    if (contrib_counts[i] == 0 ||
        contrib_counts[i] > contrib_peers.size() - next) {
      return Status::IOError(
          "snapshot: contributor counts disagree with the contributor "
          "column");
    }
    if (owners[i] >= num_peers) {
      return Status::IOError("snapshot: key owner out of range");
    }
    auto& published = entries.emplace_back(std::piecewise_construct,
                                           std::forward_as_tuple(keys[i]),
                                           std::forward_as_tuple())
                          .second;
    published.owner = owners[i];
    published.entry.global_df = dfs[i];
    published.entry.is_hdk = dfs[i] <= df_max;
    HDK_RETURN_NOT_OK(
        ReadPostingSlice(cur, counts[i], &published.entry.postings));
    Ledger& side = ledger->emplace_back();
    if (!published.entry.is_hdk) {
      if (ndk == merged_counts.size()) {
        return Status::IOError("snapshot: fewer merged lists than NDKs");
      }
      HDK_RETURN_NOT_OK(
          ReadPostingSlice(cur, merged_counts[ndk++], &side.merged));
    }
    side.contributors.reserve(contrib_counts[i]);
    uint64_t df_sum = 0;
    for (uint32_t j = 0; j < contrib_counts[i]; ++j, ++next) {
      const PeerId peer = contrib_peers[next];
      const uint32_t local_df = contrib_dfs[next];
      if (peer >= num_peers || (j > 0 && peer <= contrib_peers[next - 1])) {
        return Status::IOError(
            "snapshot: contributor ids out of range or not ascending");
      }
      side.contributors.push_back({peer, local_df});
      df_sum += local_df;
      const bool has_kept = kept < kept_index.size() && kept_index[kept] == next;
      if (has_kept != (local_df > df_max) ||
          (has_kept && kept_counts[kept] != local_df)) {
        return Status::IOError(
            "snapshot: kept lists must be exactly the truncated "
            "contributions, each as long as its local df");
      }
      if (has_kept) {
        auto& kept_list = side.kept.emplace_back();
        kept_list.peer = peer;
        HDK_RETURN_NOT_OK(
            ReadPostingSlice(cur, kept_counts[kept++], &kept_list.full));
      }
    }
    if (df_sum != dfs[i]) {
      return Status::IOError(
          "snapshot: local dfs do not sum to the global df");
    }
  }
  if (next != contrib_peers.size() || ndk != merged_counts.size() ||
      kept != kept_index.size()) {
    return Status::IOError(
        "snapshot: key table columns longer than its keys need");
  }
  keys_out->AdoptRaw(std::move(entries), std::move(hashes));
  return Status::OK();
}

// --- per-section writers / readers ---------------------------------------

void WriteConfigSection(SnapshotWriter& w, const EngineConfig& config,
                        size_t num_peers, DocId indexed_docs) {
  w.BeginSection(SectionId::kConfig);
  w.WriteU64(config.hdk.df_max);
  w.WriteU64(config.hdk.very_frequent_threshold);
  w.WriteU64(config.hdk.rare_threshold);
  w.WriteU32(config.hdk.window);
  w.WriteU32(config.hdk.s_max);
  w.WriteU64(config.hdk.ndk_truncation);
  w.WriteU8(static_cast<uint8_t>(config.overlay));
  w.WriteU64(config.overlay_seed);
  w.WriteU64(num_peers);
  w.WriteU64(indexed_docs);
  w.EndSection();
}

/// Decodes the config section into `saved`'s config fields (params,
/// overlay kind and seed, peer count, indexed frontier).
Status DecodeConfigSection(const SnapshotReader& reader,
                           SnapshotDescription* saved) {
  HDK_ASSIGN_OR_RETURN(SectionCursor cur,
                       reader.Find(SectionId::kConfig));
  HDK_RETURN_NOT_OK(cur.ReadU64(&saved->params.df_max));
  HDK_RETURN_NOT_OK(cur.ReadU64(&saved->params.very_frequent_threshold));
  HDK_RETURN_NOT_OK(cur.ReadU64(&saved->params.rare_threshold));
  HDK_RETURN_NOT_OK(cur.ReadU32(&saved->params.window));
  HDK_RETURN_NOT_OK(cur.ReadU32(&saved->params.s_max));
  HDK_RETURN_NOT_OK(cur.ReadU64(&saved->params.ndk_truncation));
  HDK_RETURN_NOT_OK(cur.ReadU8(&saved->overlay_kind));
  HDK_RETURN_NOT_OK(cur.ReadU64(&saved->overlay_seed));
  HDK_RETURN_NOT_OK(cur.ReadU64(&saved->num_peers));
  HDK_RETURN_NOT_OK(cur.ReadU64(&saved->indexed_docs));
  HDK_RETURN_NOT_OK(cur.ExpectEnd());
  if (saved->num_peers == 0) {
    return Status::IOError("snapshot: zero peers (corrupt config section)");
  }
  return Status::OK();
}

Status ReadConfigSection(const SnapshotReader& reader,
                         const EngineConfig& config,
                         const corpus::DocumentStore& store,
                         uint64_t* num_peers, uint64_t* indexed_docs) {
  SnapshotDescription saved;
  HDK_RETURN_NOT_OK(DecodeConfigSection(reader, &saved));
  // The header's config hash already gates these; the field comparison is
  // defense in depth and yields a precise message on mismatch.
  if (saved.params.df_max != config.hdk.df_max ||
      saved.params.very_frequent_threshold !=
          config.hdk.very_frequent_threshold ||
      saved.params.rare_threshold != config.hdk.rare_threshold ||
      saved.params.window != config.hdk.window ||
      saved.params.s_max != config.hdk.s_max ||
      saved.params.ndk_truncation != config.hdk.ndk_truncation ||
      saved.overlay_kind != static_cast<uint8_t>(config.overlay) ||
      saved.overlay_seed != config.overlay_seed) {
    return Status::IOError(
        "snapshot was written under different engine parameters");
  }
  if (saved.indexed_docs > store.size()) {
    return Status::IOError(
        "snapshot indexes more documents than the store holds (" +
        std::to_string(saved.indexed_docs) + " > " +
        std::to_string(store.size()) + ")");
  }
  *num_peers = saved.num_peers;
  *indexed_docs = saved.indexed_docs;
  return Status::OK();
}

void WriteStatsSection(SnapshotWriter& w,
                       const corpus::CollectionStats& stats) {
  w.BeginSection(SectionId::kStats);
  w.WriteU64(stats.num_documents());
  w.WriteU64(stats.total_tokens());
  w.WriteU64(stats.vocabulary_size());
  w.WriteArray(stats.cf());
  w.WriteArray(stats.df());
  w.WriteArray(stats.RankFrequencies());
  w.EndSection();
}

Status ReadStatsSection(const SnapshotReader& reader,
                        std::unique_ptr<corpus::CollectionStats>* out) {
  HDK_ASSIGN_OR_RETURN(SectionCursor cur, reader.Find(SectionId::kStats));
  uint64_t num_documents = 0;
  uint64_t total_tokens = 0;
  uint64_t vocabulary_size = 0;
  std::vector<Freq> cf;
  std::vector<Freq> df;
  std::vector<Freq> rank_freq;
  HDK_RETURN_NOT_OK(cur.ReadU64(&num_documents));
  HDK_RETURN_NOT_OK(cur.ReadU64(&total_tokens));
  HDK_RETURN_NOT_OK(cur.ReadU64(&vocabulary_size));
  HDK_RETURN_NOT_OK(cur.ReadArray(&cf));
  HDK_RETURN_NOT_OK(cur.ReadArray(&df));
  HDK_RETURN_NOT_OK(cur.ReadArray(&rank_freq));
  HDK_RETURN_NOT_OK(cur.ExpectEnd());
  *out = std::make_unique<corpus::CollectionStats>(
      num_documents, total_tokens, vocabulary_size, std::move(cf),
      std::move(df), std::move(rank_freq));
  return Status::OK();
}

void WriteOverlaySection(SnapshotWriter& w, const EngineConfig& config,
                         const dht::Overlay& overlay) {
  w.BeginSection(SectionId::kOverlay);
  w.WriteU8(static_cast<uint8_t>(config.overlay));
  w.WriteU64(config.overlay_seed);
  switch (config.overlay) {
    case OverlayKind::kPGrid: {
      const auto& pgrid = static_cast<const dht::PGridOverlay&>(overlay);
      // TriePath carries padding after its uint8_t length, so the paths
      // are split into parallel bit/length arrays instead of memcpy'd.
      std::vector<uint64_t> bits;
      std::vector<uint8_t> lengths;
      bits.reserve(overlay.num_peers());
      lengths.reserve(overlay.num_peers());
      for (PeerId p = 0; p < overlay.num_peers(); ++p) {
        bits.push_back(pgrid.Path(p).bits);
        lengths.push_back(pgrid.Path(p).length);
      }
      w.WriteArray(bits);
      w.WriteArray(lengths);
      break;
    }
    case OverlayKind::kChord: {
      const auto& chord = static_cast<const dht::ChordOverlay&>(overlay);
      w.WriteU64(chord.next_placement());
      std::vector<RingId> node_ids;
      node_ids.reserve(overlay.num_peers());
      for (PeerId p = 0; p < overlay.num_peers(); ++p) {
        node_ids.push_back(chord.NodeId(p));
      }
      w.WriteArray(node_ids);
      break;
    }
  }
  w.EndSection();
}

Status ReadOverlaySection(const SnapshotReader& reader,
                          const EngineConfig& config, uint64_t num_peers,
                          std::unique_ptr<dht::Overlay>* out) {
  HDK_ASSIGN_OR_RETURN(SectionCursor cur, reader.Find(SectionId::kOverlay));
  uint8_t kind = 0;
  uint64_t seed = 0;
  HDK_RETURN_NOT_OK(cur.ReadU8(&kind));
  HDK_RETURN_NOT_OK(cur.ReadU64(&seed));
  if (kind != static_cast<uint8_t>(config.overlay) ||
      seed != config.overlay_seed) {
    return Status::IOError("snapshot overlay section disagrees with the "
                           "configured overlay");
  }
  switch (config.overlay) {
    case OverlayKind::kPGrid: {
      std::vector<uint64_t> bits;
      std::vector<uint8_t> lengths;
      HDK_RETURN_NOT_OK(cur.ReadArray(&bits));
      HDK_RETURN_NOT_OK(cur.ReadArray(&lengths));
      if (bits.size() != lengths.size() || bits.size() != num_peers) {
        return Status::IOError("snapshot: P-Grid path arrays disagree with "
                               "the saved peer count");
      }
      std::vector<dht::TriePath> paths(bits.size());
      for (size_t i = 0; i < bits.size(); ++i) {
        if (lengths[i] > 63) {
          return Status::IOError("snapshot: corrupt P-Grid path length");
        }
        paths[i] = dht::TriePath{bits[i], lengths[i]};
      }
      *out = std::make_unique<dht::PGridOverlay>(seed, std::move(paths));
      break;
    }
    case OverlayKind::kChord: {
      uint64_t next_placement = 0;
      std::vector<RingId> node_ids;
      HDK_RETURN_NOT_OK(cur.ReadU64(&next_placement));
      HDK_RETURN_NOT_OK(cur.ReadArray(&node_ids));
      if (node_ids.size() != num_peers) {
        return Status::IOError("snapshot: Chord ring disagrees with the "
                               "saved peer count");
      }
      *out = std::make_unique<dht::ChordOverlay>(seed, next_placement,
                                                 std::move(node_ids));
      break;
    }
  }
  return cur.ExpectEnd();
}

void WriteTrafficSection(SnapshotWriter& w,
                         const net::TrafficRecorder& traffic) {
  w.BeginSection(SectionId::kTraffic);
  // Self-describing kind axis (format v2): the per-kind array is prefixed
  // with its length so a snapshot stays readable when MessageKind grows.
  w.WritePod(static_cast<uint64_t>(net::kNumMessageKinds));
  w.WritePod(traffic.total());
  for (size_t k = 0; k < net::kNumMessageKinds; ++k) {
    w.WritePod(traffic.ByKind(static_cast<net::MessageKind>(k)));
  }
  const size_t peers = traffic.num_peers();
  std::vector<net::TrafficCounters> sent;
  std::vector<net::TrafficCounters> received;
  sent.reserve(peers);
  received.reserve(peers);
  for (PeerId p = 0; p < peers; ++p) {
    sent.push_back(traffic.SentBy(p));
    received.push_back(traffic.ReceivedBy(p));
  }
  w.WriteArray(sent);
  w.WriteArray(received);
  w.EndSection();
}

Status ReadTrafficSection(const SnapshotReader& reader,
                          net::TrafficRecorder* traffic) {
  HDK_ASSIGN_OR_RETURN(SectionCursor cur, reader.Find(SectionId::kTraffic));
  net::TrafficCounters total;
  std::array<net::TrafficCounters, net::kNumMessageKinds> by_kind{};
  std::vector<net::TrafficCounters> sent;
  std::vector<net::TrafficCounters> received;
  uint64_t num_kinds = 0;
  HDK_RETURN_NOT_OK(cur.ReadPod(&num_kinds));
  if (num_kinds > net::kNumMessageKinds) {
    return Status::IOError(
        "snapshot: traffic section records more message kinds than this "
        "build knows");
  }
  HDK_RETURN_NOT_OK(cur.ReadPod(&total));
  for (uint64_t k = 0; k < num_kinds; ++k) {
    HDK_RETURN_NOT_OK(cur.ReadPod(&by_kind[k]));
  }
  HDK_RETURN_NOT_OK(cur.ReadArray(&sent));
  HDK_RETURN_NOT_OK(cur.ReadArray(&received));
  HDK_RETURN_NOT_OK(cur.ExpectEnd());
  if (sent.size() != received.size()) {
    return Status::IOError("snapshot: traffic per-peer arrays disagree");
  }
  traffic->Restore(total, by_kind, std::move(sent), std::move(received));
  return Status::OK();
}

void WriteProtocolSection(SnapshotWriter& w,
                          const p2p::HdkIndexingProtocol& protocol) {
  w.BeginSection(SectionId::kProtocol);
  WriteTermIdSet(w, protocol.very_frequent());

  const p2p::IndexingReport& report = protocol.report();
  w.WriteU64(report.levels.size());
  for (const p2p::ProtocolLevelStats& level : report.levels) {
    // ProtocolLevelStats pads after its uint32_t level: field-wise.
    w.WriteU32(level.level);
    w.WriteU64(level.keys_inserted);
    w.WriteU64(level.postings_inserted);
    w.WriteU64(level.hdks);
    w.WriteU64(level.ndks);
    w.WriteU64(level.notifications);
    w.WritePod(level.generation);
  }
  w.WriteU64(report.excluded_very_frequent_terms);
  w.WriteArray(report.inserted_postings_per_peer);

  w.WriteDouble(protocol.phase_timings().scan_seconds);
  w.WriteDouble(protocol.phase_timings().merge_seconds);
  w.WriteU64(protocol.indexed_documents());

  w.WriteU64(protocol.peers().size());
  for (const p2p::Peer& peer : protocol.peers()) {
    w.WriteU32(peer.id());
    w.WriteU32(peer.first_doc());
    w.WriteU32(peer.last_doc());
    WriteTermIdSet(w, peer.oracle().expandable_terms());
    WriteKeySet(w, peer.oracle().ndks());
  }
  w.EndSection();
}

Status ReadProtocolSection(const SnapshotReader& reader,
                           const EngineConfig& config,
                           uint64_t expected_peers,
                           p2p::HdkIndexingProtocol* protocol,
                           p2p::DistributedGlobalIndex* global) {
  HDK_ASSIGN_OR_RETURN(SectionCursor cur,
                       reader.Find(SectionId::kProtocol));
  TermIdSet very_frequent;
  HDK_RETURN_NOT_OK(ReadTermIdSet(cur, &very_frequent));

  p2p::IndexingReport report;
  uint64_t num_levels = 0;
  HDK_RETURN_NOT_OK(cur.ReadU64(&num_levels));
  if (num_levels > 64) {
    return Status::IOError("snapshot: implausible protocol level count");
  }
  report.levels.resize(num_levels);
  for (p2p::ProtocolLevelStats& level : report.levels) {
    HDK_RETURN_NOT_OK(cur.ReadU32(&level.level));
    HDK_RETURN_NOT_OK(cur.ReadU64(&level.keys_inserted));
    HDK_RETURN_NOT_OK(cur.ReadU64(&level.postings_inserted));
    HDK_RETURN_NOT_OK(cur.ReadU64(&level.hdks));
    HDK_RETURN_NOT_OK(cur.ReadU64(&level.ndks));
    HDK_RETURN_NOT_OK(cur.ReadU64(&level.notifications));
    HDK_RETURN_NOT_OK(cur.ReadPod(&level.generation));
  }
  HDK_RETURN_NOT_OK(cur.ReadU64(&report.excluded_very_frequent_terms));
  HDK_RETURN_NOT_OK(cur.ReadArray(&report.inserted_postings_per_peer));

  p2p::PhaseTimings timings;
  HDK_RETURN_NOT_OK(cur.ReadDouble(&timings.scan_seconds));
  HDK_RETURN_NOT_OK(cur.ReadDouble(&timings.merge_seconds));
  uint64_t indexed_docs = 0;
  HDK_RETURN_NOT_OK(cur.ReadU64(&indexed_docs));

  uint64_t num_peers = 0;
  HDK_RETURN_NOT_OK(cur.ReadU64(&num_peers));
  if (num_peers != expected_peers) {
    return Status::IOError(
        "snapshot: protocol peer count disagrees with the config section");
  }
  std::vector<p2p::Peer> peers;
  std::vector<DocRange> ranges;
  peers.reserve(num_peers);
  ranges.reserve(num_peers);
  for (uint64_t i = 0; i < num_peers; ++i) {
    uint32_t id = 0;
    uint32_t first = 0;
    uint32_t last = 0;
    HDK_RETURN_NOT_OK(cur.ReadU32(&id));
    HDK_RETURN_NOT_OK(cur.ReadU32(&first));
    HDK_RETURN_NOT_OK(cur.ReadU32(&last));
    if (id != i) {
      return Status::IOError("snapshot: corrupt peer record");
    }
    ranges.emplace_back(first, last);
    TermIdSet terms;
    hdk::KeySet ndks;
    HDK_RETURN_NOT_OK(ReadTermIdSet(cur, &terms));
    HDK_RETURN_NOT_OK(ReadKeySet(cur, &ndks));
    hdk::SetNdkOracle oracle;
    oracle.Adopt(std::move(terms), std::move(ndks));

    p2p::Peer peer(id, first, last, config.hdk);
    peer.RestoreLocalState(std::move(oracle));
    peers.push_back(std::move(peer));
  }
  HDK_RETURN_NOT_OK(cur.ExpectEnd());
  // Run admits only disjoint ranges inside the indexed frontier, and
  // ContributionOf and the departure rescans read documents through them.
  if (Status st = corpus::ValidateDisjointRanges(ranges, indexed_docs);
      !st.ok()) {
    return Status::IOError("snapshot: corrupt peer ranges: " +
                           st.message());
  }
  return protocol->RestoreFromSnapshot(std::move(peers),
                                       std::move(very_frequent),
                                       std::move(report), timings,
                                       static_cast<DocId>(indexed_docs),
                                       global);
}

void WriteGlobalIndexSection(SnapshotWriter& w,
                             const p2p::DistributedGlobalIndex& global,
                             size_t num_peers) {
  w.BeginSection(SectionId::kGlobalIndex);
  w.WriteU64(global.num_shards());
  w.WriteU64(num_peers);
  for (size_t shard = 0; shard < global.num_shards(); ++shard) {
    WriteKeyTable(w, global.ShardKeys(shard), global.ShardLedger(shard));
  }
  w.EndSection();
}

/// Opens the global-index section and decodes its header (the writer's
/// shard count and peer count); the cursor is left at the first shard's
/// key table.
Result<SectionCursor> OpenGlobalIndexSection(const SnapshotReader& reader,
                                             uint64_t* saved_shards,
                                             uint64_t* num_peers) {
  HDK_ASSIGN_OR_RETURN(SectionCursor cur,
                       reader.Find(SectionId::kGlobalIndex));
  HDK_RETURN_NOT_OK(cur.ReadU64(saved_shards));
  HDK_RETURN_NOT_OK(cur.ReadU64(num_peers));
  if (*saved_shards == 0 || *saved_shards > 4096) {
    return Status::IOError("snapshot: implausible shard count");
  }
  return cur;
}

Status ReadGlobalIndexSection(const SnapshotReader& reader,
                              uint64_t expected_peers, uint64_t df_max,
                              p2p::DistributedGlobalIndex* global) {
  uint64_t saved_shards = 0;
  uint64_t num_peers = 0;
  HDK_ASSIGN_OR_RETURN(
      SectionCursor cur,
      OpenGlobalIndexSection(reader, &saved_shards, &num_peers));
  if (num_peers != expected_peers) {
    return Status::IOError(
        "snapshot: global-index peer count disagrees with the config "
        "section");
  }
  // The saved shard count is a property of the WRITER's thread pool; this
  // index may shard differently. Equal counts adopt each shard's table
  // wholesale; differing counts re-route entry by entry via the stored
  // placement hash — still no term array is ever re-hashed.
  const bool bulk = saved_shards == global->num_shards();
  for (uint64_t shard = 0; shard < saved_shards; ++shard) {
    KeyTable keys;
    std::vector<Ledger> ledger;
    HDK_RETURN_NOT_OK(ReadKeyTable(cur, df_max, num_peers, &keys, &ledger));
    if (bulk) {
      global->AdoptShardState(shard, std::move(keys), std::move(ledger));
      continue;
    }
    for (size_t i = 0; i < keys.size(); ++i) {
      auto& [key, published] = keys.entry(i);
      global->AdoptEntry(key, keys.hash_at(i), std::move(published),
                         std::move(ledger[i]));
    }
  }
  return cur.ExpectEnd();
}

void WriteEngineSection(SnapshotWriter& w, const p2p::GrowthStats& growth,
                        const p2p::DepartureStats& departure,
                        const HdkSearchEngine::MembershipSummary& membership,
                        PeerId next_origin) {
  w.BeginSection(SectionId::kEngine);
  static_assert(std::is_trivially_copyable_v<p2p::GrowthStats> &&
                    sizeof(p2p::GrowthStats) == 9 * sizeof(uint64_t),
                "GrowthStats is part of the snapshot wire format");
  w.WritePod(growth);
  // DepartureStats pads after its PeerId: field-wise.
  w.WriteU32(departure.departed);
  w.WriteU64(departure.removed_contributions);
  w.WriteU64(departure.removed_postings);
  w.WriteU64(departure.erased_keys);
  w.WriteU64(departure.retracted_keys);
  w.WriteU64(departure.reverse_reclassified);
  w.WriteU64(departure.repaired_keys);
  w.WriteU64(departure.migrated_keys);
  w.WriteU64(departure.moved_postings);
  w.WriteU64(departure.readmitted_terms);
  w.WriteU64(departure.forget_notifications);
  w.WriteU64(departure.repair_insertions);
  w.WriteU64(departure.repair_postings);
  w.WriteU64(departure.rescanned_peers);
  w.WriteU64(membership.events);
  w.WriteU64(membership.joined_peers);
  w.WriteU64(membership.departed_peers);
  w.WriteU32(next_origin);
  w.EndSection();
}

Status ReadEngineSection(const SnapshotReader& reader,
                         p2p::GrowthStats* growth,
                         p2p::DepartureStats* departure,
                         HdkSearchEngine::MembershipSummary* membership,
                         PeerId* next_origin) {
  HDK_ASSIGN_OR_RETURN(SectionCursor cur, reader.Find(SectionId::kEngine));
  HDK_RETURN_NOT_OK(cur.ReadPod(growth));
  HDK_RETURN_NOT_OK(cur.ReadU32(&departure->departed));
  HDK_RETURN_NOT_OK(cur.ReadU64(&departure->removed_contributions));
  HDK_RETURN_NOT_OK(cur.ReadU64(&departure->removed_postings));
  HDK_RETURN_NOT_OK(cur.ReadU64(&departure->erased_keys));
  HDK_RETURN_NOT_OK(cur.ReadU64(&departure->retracted_keys));
  HDK_RETURN_NOT_OK(cur.ReadU64(&departure->reverse_reclassified));
  HDK_RETURN_NOT_OK(cur.ReadU64(&departure->repaired_keys));
  HDK_RETURN_NOT_OK(cur.ReadU64(&departure->migrated_keys));
  HDK_RETURN_NOT_OK(cur.ReadU64(&departure->moved_postings));
  HDK_RETURN_NOT_OK(cur.ReadU64(&departure->readmitted_terms));
  HDK_RETURN_NOT_OK(cur.ReadU64(&departure->forget_notifications));
  HDK_RETURN_NOT_OK(cur.ReadU64(&departure->repair_insertions));
  HDK_RETURN_NOT_OK(cur.ReadU64(&departure->repair_postings));
  HDK_RETURN_NOT_OK(cur.ReadU64(&departure->rescanned_peers));
  HDK_RETURN_NOT_OK(cur.ReadU64(&membership->events));
  HDK_RETURN_NOT_OK(cur.ReadU64(&membership->joined_peers));
  HDK_RETURN_NOT_OK(cur.ReadU64(&membership->departed_peers));
  HDK_RETURN_NOT_OK(cur.ReadU32(next_origin));
  return cur.ExpectEnd();
}

}  // namespace

uint64_t SnapshotConfigHash(const EngineConfig& config) {
  uint64_t h = Mix64(0x48444b53u);  // "HDKS"
  h = HashCombine(h, config.hdk.df_max);
  h = HashCombine(h, config.hdk.very_frequent_threshold);
  h = HashCombine(h, config.hdk.rare_threshold);
  h = HashCombine(h, config.hdk.window);
  h = HashCombine(h, config.hdk.s_max);
  h = HashCombine(h, config.hdk.ndk_truncation);
  h = HashCombine(h, static_cast<uint64_t>(config.overlay));
  h = HashCombine(h, config.overlay_seed);
  // num_threads is deliberately excluded: results are thread-count
  // invariant, so snapshots port across parallelism settings. The sync
  // config is excluded like `faults`: it shapes repair transport, never
  // the persisted index, so snapshots port across sync settings.
  return h;
}

uint64_t SnapshotStoreHash(const corpus::DocumentStore& store) {
  uint64_t h = Mix64(store.size() + 0x5354u);  // "ST"
  h = HashCombine(h, store.TotalTokens());
  if (store.size() == 0) return h;
  // Up to 64 evenly spaced sample documents, token bytes hashed whole —
  // catches regenerated, reshuffled or differently seeded corpora at
  // O(sampled tokens) cost.
  const size_t samples = std::min<size_t>(store.size(), 64);
  const size_t stride = store.size() / samples;
  for (size_t i = 0; i < samples; ++i) {
    const DocId doc = static_cast<DocId>(i * stride);
    std::span<const TermId> tokens = store.Tokens(doc);
    h = HashCombine(h, Fnv1a64(std::string_view(
                           reinterpret_cast<const char*>(tokens.data()),
                           tokens.size() * sizeof(TermId))));
  }
  return h;
}

Status SaveEngineSnapshot(const HdkSearchEngine& engine,
                          const std::string& path) {
  if (engine.protocol_ == nullptr || engine.global_ == nullptr) {
    return Status::FailedPrecondition(
        "SaveEngineSnapshot: engine was never built");
  }
  if (engine.global_->HasPendingContributions()) {
    return Status::FailedPrecondition(
        "SaveEngineSnapshot: un-merged contributions pending");
  }
  for (const p2p::Peer& peer : engine.protocol_->peers()) {
    if (peer.HasFreshKnowledge()) {
      return Status::FailedPrecondition(
          "SaveEngineSnapshot: a peer holds unconsumed fresh knowledge");
    }
  }

  SnapshotWriter w;
  const size_t num_peers = engine.overlay_->num_peers();
  WriteConfigSection(w, engine.config_, num_peers,
                     engine.protocol_->indexed_documents());
  WriteStatsSection(w, *engine.stats_);
  WriteOverlaySection(w, engine.config_, *engine.overlay_);
  WriteTrafficSection(w, *engine.traffic_);
  WriteProtocolSection(w, *engine.protocol_);
  WriteGlobalIndexSection(w, *engine.global_, num_peers);
  WriteEngineSection(w, engine.last_growth_, engine.last_departure_,
                     engine.last_membership_, engine.next_origin_.value());
  return w.Commit(SnapshotConfigHash(engine.config_),
                  SnapshotStoreHash(*engine.store_), path);
}

Result<SnapshotDescription> DescribeEngineSnapshot(const std::string& path,
                                                   uint32_t replication) {
  HDK_ASSIGN_OR_RETURN(SnapshotReader reader, SnapshotReader::Open(path));
  SnapshotDescription desc;
  desc.format_version = reader.format_version();
  desc.config_hash = reader.config_hash();
  desc.store_hash = reader.store_hash();
  desc.file_size = reader.file_size();
  for (const store::SectionEntry& entry : reader.sections()) {
    desc.sections.push_back(
        {entry.id,
         std::string(
             store::SectionIdName(static_cast<SectionId>(entry.id))),
         entry.offset, entry.length, entry.checksum});
  }

  HDK_RETURN_NOT_OK(DecodeConfigSection(reader, &desc));

  // Replica accounting wants the writer's exact overlay (post-churn
  // placements differ from a fresh build); reconstruct it from the
  // overlay section using the kind/seed the config section decoded.
  desc.replication = replication;
  std::unique_ptr<dht::Overlay> overlay;
  if (replication > 1) {
    EngineConfig overlay_config;
    overlay_config.overlay = static_cast<OverlayKind>(desc.overlay_kind);
    overlay_config.overlay_seed = desc.overlay_seed;
    HDK_RETURN_NOT_OK(ReadOverlaySection(reader, overlay_config,
                                         desc.num_peers, &overlay));
    desc.replica_keys_per_peer.assign(desc.num_peers, 0);
  }

  {
    uint64_t saved_shards = 0;
    uint64_t num_peers = 0;
    HDK_ASSIGN_OR_RETURN(
        SectionCursor cur,
        OpenGlobalIndexSection(reader, &saved_shards, &num_peers));
    for (uint64_t shard = 0; shard < saved_shards; ++shard) {
      SnapshotDescription::Shard info;
      KeyTable keys;
      std::vector<Ledger> ledger;
      HDK_RETURN_NOT_OK(ReadKeyTable(cur, desc.params.df_max, num_peers,
                                     &keys, &ledger));
      info.keys = keys.size();
      for (size_t pos = 0; pos < keys.size(); ++pos) {
        const auto& published = keys.entry(pos).second;
        const Ledger& side = ledger[pos];
        info.published_postings += published.entry.postings.size();
        info.ndk_merged_postings += side.merged.size();
        info.contributor_records += side.contributors.size();
        for (const auto& kept : side.kept) info.kept_postings += kept.full.size();
        if (overlay != nullptr) {
          const dht::HolderSet holders =
              dht::ReplicaHolders(*overlay, keys.hash_at(pos), replication);
          for (size_t i = 1; i < holders.size(); ++i) {
            ++desc.replica_keys_per_peer[holders[i]];
          }
        }
      }
      desc.shards.push_back(info);
    }
    HDK_RETURN_NOT_OK(cur.ExpectEnd());
  }
  return desc;
}

Result<std::unique_ptr<HdkSearchEngine>> LoadEngineSnapshot(
    const EngineConfig& config, const corpus::DocumentStore& store,
    const std::string& path) {
  HDK_RETURN_NOT_OK(config.hdk.Validate());
  HDK_ASSIGN_OR_RETURN(SnapshotReader reader, SnapshotReader::Open(path));
  if (reader.config_hash() != SnapshotConfigHash(config)) {
    return Status::IOError(
        "snapshot was written under different engine parameters "
        "(config hash mismatch); rebuild or load with the writer's config");
  }
  if (reader.store_hash() != SnapshotStoreHash(store)) {
    return Status::IOError(
        "snapshot was built over a different document store "
        "(store hash mismatch); rebuild against this corpus");
  }

  uint64_t num_peers = 0;
  uint64_t indexed_docs = 0;
  HDK_RETURN_NOT_OK(
      ReadConfigSection(reader, config, store, &num_peers, &indexed_docs));

  auto engine = std::unique_ptr<HdkSearchEngine>(new HdkSearchEngine());
  engine->config_ = config;
  engine->store_ = &store;
  HDK_RETURN_NOT_OK(ReadStatsSection(reader, &engine->stats_));
  engine->pool_ = ThreadPool::MakeIfParallel(config.num_threads);
  HDK_RETURN_NOT_OK(
      ReadOverlaySection(reader, config, num_peers, &engine->overlay_));
  engine->traffic_ = std::make_unique<net::TrafficRecorder>();
  HDK_RETURN_NOT_OK(ReadTrafficSection(reader, engine->traffic_.get()));

  // Fault/retry/replication state is engine-local runtime configuration,
  // not indexed state: it is rebuilt from `config`, never persisted (and
  // deliberately excluded from SnapshotConfigHash — a snapshot ports
  // across fault plans).
  const net::Resilience resilience = engine->InstallResilience();
  engine->protocol_ = std::make_unique<p2p::HdkIndexingProtocol>(
      config.hdk, store, engine->overlay_.get(), engine->traffic_.get(),
      engine->pool_.get(), resilience);
  engine->global_ = std::make_unique<p2p::DistributedGlobalIndex>(
      engine->overlay_.get(), engine->traffic_.get(), engine->pool_.get(),
      /*num_shards=*/0, resilience);
  engine->global_->EnsureCapacity();
  HDK_RETURN_NOT_OK(ReadGlobalIndexSection(reader, num_peers,
                                           config.hdk.df_max,
                                           engine->global_.get()));
  // Replicas are derived state: rebuilt traffic-free from the restored
  // published entries.
  engine->global_->RebuildReplicas();
  HDK_RETURN_NOT_OK(ReadProtocolSection(reader, config, num_peers,
                                        engine->protocol_.get(),
                                        engine->global_.get()));
  if (engine->protocol_->indexed_documents() != indexed_docs) {
    return Status::IOError(
        "snapshot: config and protocol sections disagree on the indexed "
        "document frontier");
  }

  engine->retriever_ = std::make_unique<p2p::HdkRetriever>(
      engine->global_.get(), config.hdk, engine->stats_->num_documents(),
      engine->stats_->average_document_length(), engine->traffic_.get());

  PeerId next_origin = 0;
  HDK_RETURN_NOT_OK(ReadEngineSection(reader, &engine->last_growth_,
                                      &engine->last_departure_,
                                      &engine->last_membership_,
                                      &next_origin));
  if (num_peers > 0) {
    engine->next_origin_.Restore(
        static_cast<PeerId>(next_origin % num_peers));
  }
  // The restored posting lists borrow their elements straight from the
  // mapping; hand the reader to the engine so it outlives them. Moving
  // the reader moves the mapping handle, not the mapped address, so the
  // borrowed views stay valid.
  engine->snapshot_backing_ =
      std::make_shared<SnapshotReader>(std::move(reader));
  return engine;
}

}  // namespace hdk::engine
