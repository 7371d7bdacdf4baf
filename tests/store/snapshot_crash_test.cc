// Crash safety of the snapshot commit protocol (write tmp -> fsync ->
// rename): a writer that dies at ANY point leaves either the old intact
// snapshot or no snapshot — never a torn file under the final name — and
// whatever it left behind (a stale '.tmp', partial bytes) must not
// poison the next SaveSnapshot or a concurrent load.
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/synthetic.h"
#include "engine/engine_snapshot.h"
#include "engine/hdk_engine.h"
#include "engine/partition.h"
#include "store/snapshot_reader.h"

namespace hdk::engine {
namespace {

corpus::SyntheticCorpus CrashCorpus() {
  corpus::SyntheticConfig cfg;
  cfg.seed = 606;
  cfg.vocabulary_size = 1500;
  cfg.num_topics = 6;
  cfg.topic_width = 25;
  cfg.mean_doc_length = 40.0;
  return corpus::SyntheticCorpus(cfg);
}

EngineConfig CrashConfig() {
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

class SnapshotCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CrashCorpus().FillStore(80, &store_);
    auto built =
        HdkSearchEngine::Build(CrashConfig(), store_, SplitEvenly(80, 4));
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    engine_ = std::move(*built);
  }

  corpus::DocumentStore store_;
  std::unique_ptr<HdkSearchEngine> engine_;
};

TEST_F(SnapshotCrashTest, StaleTmpFromCrashedWriterIsOverwritten) {
  const std::string path = TempPath("crash_stale_tmp.hdks");
  const std::string tmp = path + ".tmp";
  // A previous writer died mid-write: its half-written tmp survives.
  WriteFile(tmp, std::vector<char>(1234, '\x5a'));

  ASSERT_TRUE(engine_->SaveSnapshot(path).ok());
  // The commit truncated and reused the tmp, then renamed it away:
  // nothing stale remains, and the committed file is fully valid.
  EXPECT_FALSE(std::filesystem::exists(tmp));
  auto loaded = LoadEngineSnapshot(CrashConfig(), store_, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
}

TEST_F(SnapshotCrashTest, CrashBeforeRenameLeavesOldSnapshotReadable) {
  const std::string path = TempPath("crash_before_rename.hdks");
  ASSERT_TRUE(engine_->SaveSnapshot(path).ok());
  const std::vector<char> committed = ReadFile(path);

  // Simulate a writer that crashed after writing PART of the new tmp but
  // before the rename: the final name still holds the old snapshot.
  WriteFile(path + ".tmp",
            std::vector<char>(committed.begin(),
                              committed.begin() +
                                  static_cast<ptrdiff_t>(committed.size() / 3)));
  auto loaded = LoadEngineSnapshot(CrashConfig(), store_, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(ReadFile(path), committed);
  std::filesystem::remove(path + ".tmp");
}

TEST_F(SnapshotCrashTest, TornFileUnderFinalNameIsRefused) {
  const std::string path = TempPath("crash_torn.hdks");
  ASSERT_TRUE(engine_->SaveSnapshot(path).ok());
  const std::vector<char> committed = ReadFile(path);

  // A torn file under the final name (a non-atomic copy, filesystem
  // damage, or a foreign writer): every partial prefix must be refused —
  // by SnapshotReader::Open itself and by the engine loader above it.
  for (size_t frac = 1; frac <= 3; ++frac) {
    std::vector<char> torn(
        committed.begin(),
        committed.begin() +
            static_cast<ptrdiff_t>(committed.size() * frac / 4));
    WriteFile(path, torn);
    EXPECT_FALSE(store::SnapshotReader::Open(path).ok()) << frac;
    EXPECT_FALSE(LoadEngineSnapshot(CrashConfig(), store_, path).ok())
        << frac;
  }

  // Recovery: the next SaveSnapshot over the torn file restores a loadable
  // snapshot with the exact committed bytes.
  ASSERT_TRUE(engine_->SaveSnapshot(path).ok());
  EXPECT_EQ(ReadFile(path), committed);
  EXPECT_TRUE(LoadEngineSnapshot(CrashConfig(), store_, path).ok());
}

}  // namespace
}  // namespace hdk::engine
