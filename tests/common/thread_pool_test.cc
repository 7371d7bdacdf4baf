#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace hdk {
namespace {

TEST(ThreadPoolTest, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::HardwareThreads(), 1u);
}

TEST(ThreadPoolTest, ChunkBoundsCoverRangeExactlyOnce) {
  for (size_t n : {0u, 1u, 5u, 16u, 17u, 1000u}) {
    for (size_t chunks : {1u, 2u, 4u, 7u}) {
      size_t covered = 0;
      size_t expected_begin = 0;
      for (size_t c = 0; c < chunks; ++c) {
        const auto [begin, end] = ThreadPool::ChunkBounds(n, chunks, c);
        EXPECT_EQ(begin, expected_begin);
        EXPECT_LE(begin, end);
        covered += end - begin;
        expected_begin = end;
      }
      EXPECT_EQ(covered, n);
      EXPECT_EQ(expected_begin, n);
    }
  }
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  size_t calls = 0;
  pool.ParallelChunks(10, [&](size_t begin, size_t end, size_t chunk) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 10u);
    EXPECT_EQ(chunk, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1u);
}

TEST(ThreadPoolTest, EveryIndexVisitedExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> visits(kN);
  ParallelForEach(&pool, kN, [&](size_t i) { ++visits[i]; });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, NullPoolIsSerial) {
  std::vector<int> order;
  ParallelForEach(nullptr, 5, [&](size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, SingleThreadPoolForEachRunsInAscendingOrder) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  ParallelForEach(&pool, 6, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(ThreadPoolTest, UnevenWorkVisitsEveryIndexExactlyOnce) {
  // A few slow indices among many fast ones, the shape of a join wave
  // (full scans of the joining peers beside small delta scans): indices
  // are claimed one at a time, and none may be skipped or run twice.
  ThreadPool pool(4);
  for (size_t n : {1u, 3u, 4u, 5u, 20u, 301u}) {
    std::vector<std::atomic<int>> visits(n);
    ParallelForEach(&pool, n, [&](size_t i) {
      if (i % 7 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(300));
      }
      ++visits[i];
    });
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "n " << n << " index " << i;
    }
  }
}

TEST(ThreadPoolTest, ParallelChunksKeepsStaticChunkBounds) {
  // Per-chunk accumulators (SearchBatch) rely on the chunk boundaries
  // depending only on (n, num_threads).
  ThreadPool pool(4);
  std::vector<std::pair<size_t, size_t>> bounds(pool.num_threads());
  ParallelChunks(&pool, 10, [&](size_t begin, size_t end, size_t chunk) {
    bounds[chunk] = {begin, end};
  });
  EXPECT_EQ(bounds, (std::vector<std::pair<size_t, size_t>>{
                        {0, 3}, {3, 6}, {6, 8}, {8, 10}}));
}

TEST(ThreadPoolTest, ChunkAccumulatorsReduceDeterministically) {
  // The pattern SearchBatch uses: per-chunk accumulators reduced in chunk
  // order must equal the serial sum.
  ThreadPool pool(4);
  constexpr size_t kN = 257;  // deliberately not a multiple of 4
  std::vector<uint64_t> partial(pool.num_threads(), 0);
  ParallelChunks(&pool, kN, [&](size_t begin, size_t end, size_t chunk) {
    for (size_t i = begin; i < end; ++i) partial[chunk] += i;
  });
  const uint64_t total =
      std::accumulate(partial.begin(), partial.end(), uint64_t{0});
  EXPECT_EQ(total, kN * (kN - 1) / 2);
}

TEST(ThreadPoolTest, ReusableAcrossManyJobs) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<size_t> sum{0};
    ParallelForEach(&pool, 64, [&](size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 64u * 63u / 2u);
  }
}

TEST(ThreadPoolTest, ConcurrentCallersSerializeSafely) {
  // Two external threads sharing one pool (concurrent SearchBatch over a
  // shared engine): calls serialize internally; every index is still
  // visited exactly once per caller.
  ThreadPool pool(4);
  std::atomic<size_t> total{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&] {
      ParallelForEach(&pool, 100, [&](size_t) { ++total; });
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(total.load(), 400u);
}

}  // namespace
}  // namespace hdk
