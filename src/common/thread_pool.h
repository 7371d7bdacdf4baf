// Chunked thread pool — the parallel execution substrate for the engines.
//
// The protocol and query workloads this repo parallelizes are embarrassingly
// parallel ACROSS independent units (peers within an indexing level, shards
// of the global index, queries within a batch), and determinism matters:
// serial and parallel runs must produce posting-for-posting identical
// indexes and result lists. Two entry points serve the two kinds of
// caller:
//   * ParallelChunks statically splits [0, n) into one contiguous chunk per
//     thread, so chunk boundaries (and therefore any per-chunk accumulator)
//     depend only on (n, num_threads), never on timing;
//   * ParallelForEach hands indices out one at a time through an atomic
//     cursor, so uneven units (a joining peer's full scan beside small
//     delta scans) spread over the threads. Which thread runs an index
//     depends on timing, so it suits callers whose per-index results do
//     not depend on the thread that ran them.
//
// A pool with num_threads == 1 spawns no workers and runs everything inline
// on the caller in ascending index order — the exact serial path,
// byte-identical to the pre-parallel code. The free helpers accept a
// nullptr pool with the same meaning.
#ifndef HDKP2P_COMMON_THREAD_POOL_H_
#define HDKP2P_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace hdk {

/// A fixed-size pool of worker threads executing chunked parallel-for
/// jobs. One job runs at a time; concurrent ParallelChunks
/// calls from different threads serialize on an internal mutex (each call
/// still sees its own chunking), so a shared pool is safe to use from
/// concurrently running batches.
class ThreadPool {
 public:
  /// \param num_threads worker count; 0 means HardwareThreads(). With 1,
  ///        no threads are spawned and jobs run inline on the caller.
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return num_threads_; }

  /// std::thread::hardware_concurrency with a floor of 1.
  static size_t HardwareThreads();

  /// The engine-construction policy in one place: resolves 0 to
  /// HardwareThreads() and returns a pool only when that leaves more than
  /// one thread — nullptr means "run the exact serial path".
  static std::unique_ptr<ThreadPool> MakeIfParallel(size_t num_threads);

  /// Splits [0, n) into num_threads() contiguous chunks (the first n %
  /// num_threads chunks get one extra element) and runs
  /// fn(begin, end, chunk_index) for every non-empty chunk, blocking until
  /// all chunks finished. Chunk 0 runs on the calling thread. Chunk
  /// boundaries depend only on (n, num_threads()) — deterministic.
  void ParallelChunks(size_t n,
                      const std::function<void(size_t, size_t, size_t)>& fn);

  /// [begin, end) of chunk `chunk` when [0, n) is split into `chunks`
  /// contiguous pieces. Exposed for callers sizing per-chunk accumulators.
  static std::pair<size_t, size_t> ChunkBounds(size_t n, size_t chunks,
                                               size_t chunk);

 private:
  void WorkerLoop(size_t rank);

  const size_t num_threads_;
  std::vector<std::thread> workers_;

  // One ParallelChunks call at a time.
  std::mutex run_mutex_;

  // Job broadcast state (generation-counted so workers never miss or
  // double-run a job).
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  uint64_t generation_ = 0;
  size_t job_n_ = 0;
  const std::function<void(size_t, size_t, size_t)>* job_fn_ = nullptr;
  size_t pending_workers_ = 0;
  bool stop_ = false;
};

/// Runs fn(begin, end, chunk_index) over a static chunking of [0, n).
/// pool == nullptr (or a 1-thread pool) runs fn(0, n, 0) inline — the
/// exact serial path. The number of chunks is pool ? pool->num_threads()
/// : 1; use ThreadPool::ChunkBounds with the same count to size per-chunk
/// accumulators.
inline void ParallelChunks(
    ThreadPool* pool, size_t n,
    const std::function<void(size_t, size_t, size_t)>& fn) {
  if (n == 0) return;
  if (pool == nullptr || pool->num_threads() <= 1) {
    fn(0, n, 0);
    return;
  }
  pool->ParallelChunks(n, fn);
}

/// Calls fn(i) exactly once for every i in [0, n). On a pool, every thread
/// claims the next unclaimed index from a shared atomic cursor until none
/// is left, so one slow index does not hold back a whole static chunk.
/// pool == nullptr (or a 1-thread pool) runs the indices inline in
/// ascending order — the exact serial path.
template <typename Fn>
void ParallelForEach(ThreadPool* pool, size_t n, Fn&& fn) {
  if (n == 0) return;
  if (pool == nullptr || pool->num_threads() <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<size_t> cursor{0};
  pool->ParallelChunks(
      std::min(n, pool->num_threads()), [&](size_t, size_t, size_t) {
        for (size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
             i < n; i = cursor.fetch_add(1, std::memory_order_relaxed)) {
          fn(i);
        }
      });
}

}  // namespace hdk

#endif  // HDKP2P_COMMON_THREAD_POOL_H_
