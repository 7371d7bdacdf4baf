// Deterministic mini-fuzz of the snapshot read path: hundreds of seeded
// mutants of a valid snapshot — truncations, bit flips, byte-range
// scribbles, garbage files — thrown at SnapshotReader::Open and at the
// full engine loader. The contract under fuzz is narrow and absolute:
// every outcome is a clean Status (almost always an error; a mutation in
// dead bytes like alignment padding may legitimately still load) and
// NEVER a crash. The suite runs under the ASan/UBSan CI job, so an
// out-of-bounds read in a reject path fails loudly here.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "corpus/synthetic.h"
#include "engine/engine_snapshot.h"
#include "engine/hdk_engine.h"
#include "engine/partition.h"
#include "store/snapshot_reader.h"

namespace hdk::store {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

void WriteFile(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// One valid snapshot shared by every fuzz case.
class SnapshotFuzzTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus::SyntheticConfig cfg;
    cfg.seed = 717;
    cfg.vocabulary_size = 1500;
    cfg.num_topics = 6;
    cfg.topic_width = 25;
    cfg.mean_doc_length = 40.0;
    store_ = new corpus::DocumentStore();
    corpus::SyntheticCorpus(cfg).FillStore(80, store_);

    engine::EngineConfig config;
    config.hdk.df_max = 7;
    config.hdk.very_frequent_threshold = 300;
    config.num_threads = 1;
    auto built = engine::HdkSearchEngine::Build(config, *store_,
                                                engine::SplitEvenly(80, 4));
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const std::string path = TempPath("snapshot_fuzz_base.hdks");
    ASSERT_TRUE((*built)->SaveSnapshot(path).ok());

    std::ifstream in(path, std::ios::binary);
    bytes_ = new std::vector<char>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
    ASSERT_GT(bytes_->size(), 64u);
  }
  static void TearDownTestSuite() {
    delete bytes_;
    delete store_;
    bytes_ = nullptr;
    store_ = nullptr;
  }

  /// Opens the mutant through the whole read stack. The only acceptable
  /// outcomes are a clean error Status or a successful, well-formed load.
  static void Exercise(const std::vector<char>& mutant, uint64_t case_id) {
    const std::string path = TempPath("snapshot_fuzz_case.hdks");
    WriteFile(path, mutant);
    auto reader = SnapshotReader::Open(path);
    if (!reader.ok()) {
      EXPECT_FALSE(reader.status().ToString().empty()) << case_id;
      return;
    }
    // The rare survivor (mutation landed in dead bytes): the validated
    // table must stay self-consistent and every section findable.
    for (const SectionEntry& entry : reader->sections()) {
      EXPECT_LE(entry.offset + entry.length, reader->file_size()) << case_id;
      auto cursor = reader->Find(static_cast<SectionId>(entry.id));
      EXPECT_TRUE(cursor.ok()) << case_id;
    }
  }

  static corpus::DocumentStore* store_;
  static std::vector<char>* bytes_;
};

corpus::DocumentStore* SnapshotFuzzTest::store_ = nullptr;
std::vector<char>* SnapshotFuzzTest::bytes_ = nullptr;

TEST_F(SnapshotFuzzTest, RandomTruncations) {
  Rng rng(0xf0221);
  for (int i = 0; i < 120; ++i) {
    const size_t len = rng.NextBounded(bytes_->size());
    Exercise(std::vector<char>(bytes_->begin(),
                               bytes_->begin() + static_cast<ptrdiff_t>(len)),
             len);
  }
}

TEST_F(SnapshotFuzzTest, RandomBitFlips) {
  Rng rng(0xf0222);
  for (int i = 0; i < 200; ++i) {
    std::vector<char> mutant = *bytes_;
    const int flips = 1 + static_cast<int>(rng.NextBounded(4));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.NextBounded(mutant.size());
      mutant[pos] = static_cast<char>(
          static_cast<unsigned char>(mutant[pos]) ^
          (1u << rng.NextBounded(8)));
    }
    Exercise(mutant, static_cast<uint64_t>(i));
  }
}

TEST_F(SnapshotFuzzTest, RandomByteRangeScribbles) {
  // Overwrite a random slice with random bytes — models a torn write of
  // somebody else's data into the middle of the file. Header-area
  // scribbles attack the magic / version / section-count fields, payload
  // scribbles the checksums, length-field scribbles the cursor bounds.
  Rng rng(0xf0223);
  for (int i = 0; i < 150; ++i) {
    std::vector<char> mutant = *bytes_;
    const size_t begin = rng.NextBounded(mutant.size());
    const size_t len =
        1 + rng.NextBounded(std::min<size_t>(mutant.size() - begin, 512));
    for (size_t b = begin; b < begin + len; ++b) {
      mutant[b] = static_cast<char>(rng.NextBounded(256));
    }
    Exercise(mutant, static_cast<uint64_t>(i));
  }
}

TEST_F(SnapshotFuzzTest, PureGarbageFiles) {
  Rng rng(0xf0224);
  for (int i = 0; i < 80; ++i) {
    std::vector<char> garbage(rng.NextBounded(4096));
    for (char& b : garbage) b = static_cast<char>(rng.NextBounded(256));
    // Empty files and random noise must both fail cleanly on the magic /
    // bounds checks.
    Exercise(garbage, static_cast<uint64_t>(i));
  }
}

TEST_F(SnapshotFuzzTest, MutantsThroughTheEngineLoader) {
  // A smaller round through LoadEngineSnapshot: past SnapshotReader's
  // checksums, the per-section decoders and cross-checks (config hash,
  // store hash, posting cross-validation) must also fail cleanly, and a
  // surviving engine must answer a query without crashing.
  engine::EngineConfig config;
  config.hdk.df_max = 7;
  config.hdk.very_frequent_threshold = 300;
  config.num_threads = 1;
  Rng rng(0xf0225);
  const std::string path = TempPath("snapshot_fuzz_engine.hdks");
  for (int i = 0; i < 40; ++i) {
    std::vector<char> mutant = *bytes_;
    const size_t pos = rng.NextBounded(mutant.size());
    mutant[pos] = static_cast<char>(
        static_cast<unsigned char>(mutant[pos]) ^ (1u << rng.NextBounded(8)));
    WriteFile(path, mutant);
    auto loaded = engine::LoadEngineSnapshot(config, *store_, path);
    if (!loaded.ok()) continue;
    const std::vector<TermId> probe{1, 2, 3};
    auto response = (*loaded)->Search(probe, 5, /*origin=*/0);
    EXPECT_LE(response.results.size(), 5u) << i;
  }
}

}  // namespace
}  // namespace hdk::store
