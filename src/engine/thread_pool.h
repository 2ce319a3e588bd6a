// ThreadPool: the "executor" pool. Spark runs one task per core at a time
// per executor; we model the cluster as one pool with a fixed number of
// worker threads executing per-partition tasks.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/cancellation.h"
#include "common/macros.h"

namespace idf {

class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  IDF_DISALLOW_COPY_AND_ASSIGN(ThreadPool);

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task);

  /// Runs fn(i) for i in [0, n): ParallelForRange with one index per
  /// chunk, so it shares that call's scheduling and cancellation.
  template <typename Fn>
  void ParallelFor(size_t n, Fn&& fn, const CancellationToken* cancel = nullptr) {
    ParallelForRange(
        n, 1, [&fn](size_t begin, size_t) { fn(begin); }, cancel);
  }

  /// Morsel-driven fan-out: runs fn(begin, end) over chunks of `grain`
  /// indices carved out of [0, n) by an atomic cursor, so threads that
  /// finish early keep pulling chunks (one skewed chunk cannot serialize
  /// the rest). Chunk k is exactly [k*grain, min(n, (k+1)*grain)), so
  /// callers may index per-chunk state by `begin / grain`. Returns the
  /// number of chunks (the morsel count).
  ///
  /// The calling thread claims chunks from the same cursor as the pool.
  /// It wakes one helper, which wakes the next while chunks remain, up to
  /// min(chunks - 1, num_threads()) helpers in all. The caller works until
  /// the cursor runs out, and then waits only for chunks a helper has
  /// already claimed, so a job finishes even while every worker is busy.
  /// Calls made from a chunk run inline. A helper that arrives after the
  /// cursor ran out returns without calling `fn`, so `fn` is referenced
  /// for the duration of the call, never copied.
  ///
  /// `cancel` makes the job cooperative: the token is polled before every
  /// chunk, and once stop is requested the remaining chunks are drained
  /// without running `fn` — a cancelled or timed-out query stops consuming
  /// threads within one morsel, instead of scanning to completion.
  template <typename Fn>
  size_t ParallelForRange(size_t n, size_t grain, Fn&& fn,
                          const CancellationToken* cancel = nullptr) {
    using Body = std::remove_reference_t<Fn>;
    return RunChunks(
        n, grain, cancel,
        const_cast<void*>(static_cast<const void*>(std::addressof(fn))),
        [](void* body, size_t begin, size_t end) {
          (*static_cast<Body*>(body))(begin, end);
        });
  }

 private:
  using ChunkFn = void (*)(void* body, size_t begin, size_t end);
  struct Job;

  size_t RunChunks(size_t n, size_t grain, const CancellationToken* cancel,
                   void* body, ChunkFn call);
  void AddHelper(std::shared_ptr<Job> job, size_t more);
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool shutdown_ = false;
  // True on pool workers, and on a caller while it runs its own chunks:
  // fan-outs from such a thread run inline.
  static thread_local bool is_worker_;
};

}  // namespace idf
