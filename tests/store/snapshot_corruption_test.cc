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

  /// Loads `bytes` written to a fresh file and expects a clean failure
  /// whose message contains `want_substring`.
  static void ExpectRejected(const std::vector<char>& bytes,
                             const char* case_name,
                             const std::string& want_substring) {
    const std::string path = TempPath("snapshot_corruption_case.hdks");
    WriteFile(path, bytes);
    auto loaded = LoadEngineSnapshot(Config(), *store_, path);
    ASSERT_FALSE(loaded.ok()) << case_name;
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
  std::vector<char> bytes = *bytes_;
  const uint32_t bogus = store::kSnapshotFormatVersion + 7;
  std::memcpy(bytes.data() + offsetof(store::SnapshotHeader, format_version),
              &bogus, sizeof(bogus));
  ExpectRejected(bytes, "wrong format version", "version");
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
