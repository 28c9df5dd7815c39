// Parallel compute runtime: a lazily-initialized global thread pool with a
// chunked parallel_for (DESIGN.md §7).
//
// Design rules:
//  * Work is split into [begin, end) chunks of at most `grain` indices. The
//    chunk boundaries depend ONLY on (begin, end, grain) — never on the
//    thread count — so any value written by a parallel_for is the result of
//    the same per-chunk instruction stream no matter how many workers ran.
//    Kernels that need bit-reproducible *reductions* compute per-chunk
//    partials and reduce them sequentially in chunk order afterwards.
//  * The calling thread participates: a pool of T threads executes a
//    parallel_for on up to T+1 lanes, and `ThreadPool(0)` (or
//    MTLSPLIT_NUM_THREADS=1) degrades to plain serial execution.
//  * Nested parallel_for calls run serially on the worker that issued them;
//    this keeps batch-level parallelism (conv over samples) from deadlocking
//    against op-level parallelism (GEMM tiles) on the same pool.
//  * Concurrent parallel_for calls from different external threads are
//    supported (the SC deployment pipeline runs edge and server compute
//    stages at the same time); jobs share the worker set fairly.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mtlsplit::runtime {

/// fn(chunk_begin, chunk_end) — half-open index range, always non-empty.
using RangeFn = std::function<void(int64_t, int64_t)>;

class ThreadPool {
 public:
  /// Spawns @p num_threads - 1 workers (the caller is the remaining lane).
  /// num_threads <= 1 means fully serial execution.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallel lanes (workers + the calling thread); >= 1.
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs fn over [begin, end) in chunks of at most @p grain indices.
  /// Every index is covered exactly once. Blocks until all chunks finished.
  /// Exceptions thrown by fn are rethrown on the calling thread (first one
  /// wins). Safe to call concurrently from several threads and from inside
  /// a running chunk (nested calls execute serially).
  void parallel_for(int64_t begin, int64_t end, int64_t grain,
                    const RangeFn& fn);

  /// True when the current thread is executing a pool chunk.
  static bool in_worker();

 private:
  struct Job;

  void worker_loop();
  static void run_chunks(Job& job);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Job>> jobs_;
  bool stop_ = false;
};

/// The process-wide pool, created on first use. Thread count comes from
/// MTLSPLIT_NUM_THREADS when set (>= 1), otherwise the hardware concurrency.
ThreadPool& global_pool();

/// Lanes the global pool will use (>= 1).
int num_threads();

/// The lane count a fresh global pool would get: MTLSPLIT_NUM_THREADS when
/// set and valid, otherwise the hardware concurrency (>= 1).
int default_num_threads();

/// Replaces the global pool with one of @p n lanes. Intended for tests and
/// benchmarks; do not call while parallel work is in flight.
void set_num_threads(int n);

/// Parses a MTLSPLIT_NUM_THREADS-style value: returns the parsed count
/// clamped to >= 1, or @p fallback when @p text is null/empty/non-numeric.
int parse_thread_count(const char* text, int fallback);

/// Chunked parallel loop on the global pool. Runs serially when the range
/// fits one chunk, the pool is serial, or the caller is already a worker.
void parallel_for(int64_t begin, int64_t end, int64_t grain,
                  const RangeFn& fn);

}  // namespace mtlsplit::runtime
