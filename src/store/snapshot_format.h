// The snapshot file format: a versioned, sectioned, single-file container
// for persisted engine state (see engine/engine_snapshot.h for what goes
// into each section).
//
// Layout:
//
//   +--------------------+  offset 0
//   | SnapshotHeader     |  magic, format version, config/store hashes,
//   |                    |  section count, section-table checksum
//   +--------------------+
//   | SectionEntry[n]    |  per section: id, offset, length, checksum
//   +--------------------+
//   | section payloads   |  8-byte-aligned, back to back
//   | ...                |
//   +--------------------+
//
// Every payload carries a SnapshotChecksum in its table entry and the
// header checksums the table itself, so truncation and bit flips anywhere
// in the file are detected before any payload byte is interpreted.
// Integers are stored in the host's (little-endian on every supported
// target) byte order; the format version must be bumped whenever a
// section's wire layout changes.
#ifndef HDKP2P_STORE_SNAPSHOT_FORMAT_H_
#define HDKP2P_STORE_SNAPSHOT_FORMAT_H_

#include <cstdint>
#include <cstring>
#include <string_view>
#include <type_traits>

#include "common/hash.h"

namespace hdk::store {

inline constexpr char kSnapshotMagic[4] = {'H', 'D', 'K', 'S'};
// Version history:
//   1  initial format
//   2  traffic section gained a self-describing message-kind count
//      (the kind axis grew with the anti-entropy sync kinds)
//   3  ledger and fragment flag columns zero-padded to 4 bytes, so the
//      next map's posting blobs are 4-byte aligned
//   4  protocol section dropped each peer's published-key sets and
//      published-doc map (the ledger already holds every contribution)
//   5  global-index section is one key table per shard: keys once,
//      contributor records, published lists, NDK merged lists and the
//      kept lists of locally truncated contributions; no flag columns
inline constexpr uint32_t kSnapshotFormatVersion = 5;

/// Section identifiers. Values are part of the wire format; never reuse
/// a retired one.
enum class SectionId : uint32_t {
  kConfig = 1,       // engine parameters the snapshot was built under
  kStats = 2,        // CollectionStats arrays
  kOverlay = 3,      // P-Grid paths / Chord placements
  kTraffic = 4,      // merged traffic counters
  kProtocol = 5,     // per-peer local state + cumulative report
  kGlobalIndex = 6,  // one key table per shard
  kEngine = 7,       // engine-level bookkeeping (rotation, last stats)
};

/// Human-readable section name ("config", "global-index", ...).
std::string_view SectionIdName(SectionId id);

/// Checksum over a section payload (and the section table itself).
///
/// Snapshots run to hundreds of megabytes and every byte is verified on
/// open, so the checksum must run at memory bandwidth: four independent
/// xor-multiply lanes each consume one 64-bit word per step (no
/// cross-lane dependency chain, unlike byte-at-a-time FNV), a byte-wise
/// FNV tail covers the last <32 bytes, and SplitMix64 finalizes. This is
/// an integrity check against truncation and bit flips, not a
/// cryptographic MAC.
inline uint64_t SnapshotChecksum(const void* data, size_t n) {
  constexpr uint64_t kLaneMul = 0x9E3779B97F4A7C15ull;
  uint64_t lanes[4] = {0x243F6A8885A308D3ull, 0x13198A2E03707344ull,
                       0xA4093822299F31D0ull, 0x082EFA98EC4E6C89ull};
  const auto* p = static_cast<const uint8_t*>(data);
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    uint64_t words[4];
    std::memcpy(words, p + i, sizeof(words));
    for (int lane = 0; lane < 4; ++lane) {
      lanes[lane] = (lanes[lane] ^ words[lane]) * kLaneMul;
    }
  }
  uint64_t h = static_cast<uint64_t>(n);
  for (int lane = 0; lane < 4; ++lane) {
    h = HashCombine(h, Mix64(lanes[lane]));
  }
  for (; i < n; ++i) {
    h = (h ^ p[i]) * 0x100000001B3ull;  // FNV-1a step for the tail
  }
  return Mix64(h);
}

/// Fixed-size file header.
struct SnapshotHeader {
  char magic[4] = {0, 0, 0, 0};
  uint32_t format_version = 0;
  /// Hash of the engine parameters the snapshot was written under; a
  /// loader configured differently must reject the file.
  uint64_t config_hash = 0;
  /// Content-identity hash of the document store the engine indexed.
  uint64_t store_hash = 0;
  uint32_t num_sections = 0;
  uint32_t reserved = 0;
  /// SnapshotChecksum of the section-table bytes.
  uint64_t table_checksum = 0;
};
static_assert(std::is_trivially_copyable_v<SnapshotHeader> &&
                  sizeof(SnapshotHeader) == 40,
              "SnapshotHeader is part of the wire format");

/// One section-table row.
struct SectionEntry {
  uint32_t id = 0;
  uint32_t reserved = 0;
  /// Absolute file offset of the payload (8-byte aligned).
  uint64_t offset = 0;
  /// Payload length in bytes.
  uint64_t length = 0;
  /// SnapshotChecksum of the payload bytes.
  uint64_t checksum = 0;
};
static_assert(std::is_trivially_copyable_v<SectionEntry> &&
                  sizeof(SectionEntry) == 32,
              "SectionEntry is part of the wire format");

}  // namespace hdk::store

#endif  // HDKP2P_STORE_SNAPSHOT_FORMAT_H_
