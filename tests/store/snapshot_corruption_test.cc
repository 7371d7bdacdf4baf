// Corrupt, truncated, or mismatched snapshot files must fail with a
// descriptive Status — never crash, never return a half-restored engine.
// This suite runs under the ASan/UBSan CI job, so any out-of-bounds read
// or uninitialized use in the reject paths is caught, not just wrong
// answers.
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/synthetic.h"
#include "engine/engine_snapshot.h"
#include "engine/hdk_engine.h"
#include "engine/partition.h"
#include "store/snapshot_format.h"

namespace hdk::engine {
namespace {

corpus::SyntheticCorpus TestCorpus(uint64_t seed = 515) {
  corpus::SyntheticConfig cfg;
  cfg.seed = seed;
  cfg.vocabulary_size = 1500;
  cfg.num_topics = 6;
  cfg.topic_width = 25;
  cfg.mean_doc_length = 40.0;
  return corpus::SyntheticCorpus(cfg);
}

EngineConfig Config() {
  EngineConfig config;
  config.hdk.df_max = 7;
  config.hdk.very_frequent_threshold = 300;
  config.num_threads = 1;
  return config;
}

std::string TempPath(const char* name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

std::vector<char> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// One valid snapshot shared by every corruption case (building the
/// engine dominates this suite's runtime).
class SnapshotCorruptionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    store_ = new corpus::DocumentStore();
    TestCorpus().FillStore(80, store_);
    auto built =
        HdkSearchEngine::Build(Config(), *store_, SplitEvenly(80, 4));
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    path_ = new std::string(TempPath("snapshot_corruption_base.hdks"));
    ASSERT_TRUE((*built)->SaveSnapshot(*path_).ok());
    bytes_ = new std::vector<char>(ReadFile(*path_));
    ASSERT_GT(bytes_->size(), sizeof(store::SnapshotHeader));
  }
  static void TearDownTestSuite() {
    delete bytes_;
    delete path_;
    delete store_;
    bytes_ = nullptr;
    path_ = nullptr;
    store_ = nullptr;
  }

  /// Loads `bytes` written to a fresh file and expects a clean IOError
  /// whose message contains `want_substring`.
  static void ExpectRejected(const std::vector<char>& bytes,
                             const char* case_name,
                             const std::string& want_substring) {
    const std::string path = TempPath("snapshot_corruption_case.hdks");
    WriteFile(path, bytes);
    auto loaded = LoadEngineSnapshot(Config(), *store_, path);
    ASSERT_FALSE(loaded.ok()) << case_name;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError) << case_name;
    const std::string message = loaded.status().ToString();
    EXPECT_FALSE(message.empty()) << case_name;
    EXPECT_NE(message.find(want_substring), std::string::npos)
        << case_name << ": '" << message << "'";
  }

  static corpus::DocumentStore* store_;
  static std::string* path_;
  static std::vector<char>* bytes_;
};

corpus::DocumentStore* SnapshotCorruptionTest::store_ = nullptr;
std::string* SnapshotCorruptionTest::path_ = nullptr;
std::vector<char>* SnapshotCorruptionTest::bytes_ = nullptr;

TEST_F(SnapshotCorruptionTest, ValidFileLoads) {
  auto loaded = LoadEngineSnapshot(Config(), *store_, *path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
}

TEST_F(SnapshotCorruptionTest, MissingFile) {
  auto loaded = LoadEngineSnapshot(Config(), *store_,
                                   TempPath("does_not_exist.hdks"));
  ASSERT_FALSE(loaded.ok());
}

TEST_F(SnapshotCorruptionTest, TruncatedAtEveryCoarseOffset) {
  // Cut the file at a spread of lengths — inside the header, the section
  // table, and each payload region. Every prefix must be rejected.
  const std::vector<char>& bytes = *bytes_;
  for (size_t frac = 0; frac <= 9; ++frac) {
    const size_t len = bytes.size() * frac / 10;
    std::vector<char> cut(bytes.begin(),
                          bytes.begin() + static_cast<ptrdiff_t>(len));
    ExpectRejected(cut, ("truncated to " + std::to_string(len)).c_str(),
                   "snapshot");
  }
}

TEST_F(SnapshotCorruptionTest, FlippedPayloadByteFailsChecksum) {
  // Flip one byte in the middle of every section's payload (located via
  // the section table — a blind offset could land in alignment padding):
  // the per-section checksum must catch each before any payload byte is
  // interpreted.
  store::SnapshotHeader header;
  std::memcpy(&header, bytes_->data(), sizeof(header));
  ASSERT_GT(header.num_sections, 0u);
  for (uint32_t s = 0; s < header.num_sections; ++s) {
    store::SectionEntry entry;
    std::memcpy(&entry,
                bytes_->data() + sizeof(header) + s * sizeof(entry),
                sizeof(entry));
    if (entry.length == 0) continue;
    std::vector<char> bytes = *bytes_;
    bytes[entry.offset + entry.length / 2] ^= 0x5a;
    ExpectRejected(bytes,
                   ("flipped byte in section " + std::to_string(entry.id))
                       .c_str(),
                   "checksum");
  }
}

TEST_F(SnapshotCorruptionTest, FlippedTableByteFailsTableChecksum) {
  std::vector<char> bytes = *bytes_;
  bytes[sizeof(store::SnapshotHeader) + 4] ^= 0x5a;
  ExpectRejected(bytes, "flipped table byte", "checksum");
}

TEST_F(SnapshotCorruptionTest, WrongMagic) {
  std::vector<char> bytes = *bytes_;
  bytes[0] = 'X';
  ExpectRejected(bytes, "wrong magic", "magic");
}

TEST_F(SnapshotCorruptionTest, WrongFormatVersion) {
  // A future version and the previous layouts (v4 kept a ledger map and
  // per-peer fragment maps, v3 per-peer published columns) are refused
  // before any section is decoded.
  for (const uint32_t bogus : {store::kSnapshotFormatVersion + 7, 4u, 3u}) {
    std::vector<char> bytes = *bytes_;
    std::memcpy(bytes.data() + offsetof(store::SnapshotHeader, format_version),
                &bogus, sizeof(bogus));
    ExpectRejected(bytes, "wrong format version", "version");
  }
}

/// Applies `edit(payload)` to a copy of section `id`'s payload, then
/// re-seals the section and table checksums, so only the loader's
/// semantic checks stand between the edit and the engine.
template <typename Edit>
std::vector<char> EditSection(const std::vector<char>& original,
                              store::SectionId id, Edit edit) {
  std::vector<char> bytes = original;
  store::SnapshotHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  for (uint32_t s = 0; s < header.num_sections; ++s) {
    const size_t at = sizeof(header) + s * sizeof(store::SectionEntry);
    store::SectionEntry entry;
    std::memcpy(&entry, bytes.data() + at, sizeof(entry));
    if (entry.id != static_cast<uint32_t>(id)) continue;
    edit(bytes.data() + entry.offset, entry.length);
    entry.checksum =
        store::SnapshotChecksum(bytes.data() + entry.offset, entry.length);
    std::memcpy(bytes.data() + at, &entry, sizeof(entry));
    header.table_checksum = store::SnapshotChecksum(
        bytes.data() + sizeof(header),
        header.num_sections * sizeof(store::SectionEntry));
    std::memcpy(bytes.data(), &header, sizeof(header));
    return bytes;
  }
  ADD_FAILURE() << "no section " << static_cast<uint32_t>(id);
  return bytes;
}

/// Overwrites the u32 at element `element` of column `column` of the
/// first shard's key table in the global-index section. The table's
/// columns, in order: hashes (u64), keys (28 bytes), contributor counts,
/// contributor ids, local dfs (u32 each), global dfs (u64), owners (u32).
std::vector<char> RewriteKeyTableU32(const std::vector<char>& original,
                                     size_t column, uint64_t element,
                                     uint32_t value) {
  return EditSection(
      original, store::SectionId::kGlobalIndex,
      [&](char* payload, uint64_t /*length*/) {
        constexpr size_t kElementBytes[] = {8, 28, 4, 4, 4, 8, 4};
        // Past the shard and peer counts, each column is a u64 count plus
        // its elements.
        size_t offset = 2 * sizeof(uint64_t);
        for (size_t c = 0; c < column; ++c) {
          uint64_t count = 0;
          std::memcpy(&count, payload + offset, sizeof(count));
          offset += sizeof(count) + count * kElementBytes[c];
        }
        uint64_t count = 0;
        std::memcpy(&count, payload + offset, sizeof(count));
        EXPECT_LT(element, count);
        std::memcpy(payload + offset + sizeof(count) + element * 4, &value,
                    sizeof(value));
      });
}

/// Rewrites peer `id`'s document range in the protocol section, found by
/// its record (id, first, last as u32s), which must occur exactly once.
std::vector<char> RewritePeerRange(const std::vector<char>& original,
                                   uint32_t id, DocRange from, DocRange to) {
  return EditSection(
      original, store::SectionId::kProtocol,
      [&](char* payload, uint64_t length) {
        const uint32_t want[3] = {id, from.first, from.second};
        const uint32_t put[3] = {id, to.first, to.second};
        size_t found = 0;
        for (uint64_t at = 0; at + sizeof(want) <= length; ++at) {
          if (std::memcmp(payload + at, want, sizeof(want)) != 0) continue;
          std::memcpy(payload + at, put, sizeof(put));
          ++found;
        }
        EXPECT_EQ(found, 1u) << "peer record " << id;
      });
}

TEST_F(SnapshotCorruptionTest, ResealedKeyTableFailsSemanticChecks) {
  // Checksums intact, contents wrong: each edit would crash or corrupt
  // the next Join or departure if the loader accepted it. The test
  // engine has 4 peers.
  ExpectRejected(RewriteKeyTableU32(*bytes_, /*column=*/3, 0, 4),
                 "contributor id past the peer count", "contributor ids");
  ExpectRejected(RewriteKeyTableU32(*bytes_, /*column=*/4, 0, 0),
                 "local df off the global df", "sum to the global df");
  ExpectRejected(RewriteKeyTableU32(*bytes_, /*column=*/6, 0, 4),
                 "owner past the peer count", "owner out of range");
  // The test engine's peers own [0,20), [20,40), [40,60) and [60,80).
  ExpectRejected(RewritePeerRange(*bytes_, 3, {60, 80}, {60, 81}),
                 "peer range past the indexed frontier", "peer ranges");
  ExpectRejected(RewritePeerRange(*bytes_, 1, {20, 40}, {20, 45}),
                 "overlapping peer ranges", "peer ranges");
}

TEST_F(SnapshotCorruptionTest, WrongConfigHashInHeader) {
  std::vector<char> bytes = *bytes_;
  uint64_t hash = 0;
  std::memcpy(&hash, bytes.data() + offsetof(store::SnapshotHeader, config_hash),
              sizeof(hash));
  hash ^= 0xdeadbeef;
  std::memcpy(bytes.data() + offsetof(store::SnapshotHeader, config_hash),
              &hash, sizeof(hash));
  ExpectRejected(bytes, "wrong config hash", "parameters");
}

TEST_F(SnapshotCorruptionTest, MismatchedLoaderConfig) {
  // An intact file, but the loader runs different engine parameters.
  EngineConfig other = Config();
  other.hdk.df_max = 13;
  auto loaded = LoadEngineSnapshot(other, *store_, *path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("parameters"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST_F(SnapshotCorruptionTest, MismatchedCorpus) {
  // An intact file loaded against a differently-seeded corpus: the store
  // hash must refuse before any cross-checks trip downstream.
  corpus::DocumentStore other;
  TestCorpus(/*seed=*/99).FillStore(80, &other);
  auto loaded = LoadEngineSnapshot(Config(), other, *path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("corpus"), std::string::npos)
      << loaded.status().ToString();

  // A same-seed corpus truncated to fewer documents is also a different
  // collection.
  corpus::DocumentStore shorter;
  TestCorpus().FillStore(40, &shorter);
  auto also = LoadEngineSnapshot(Config(), shorter, *path_);
  ASSERT_FALSE(also.ok());
}

}  // namespace
}  // namespace hdk::engine
