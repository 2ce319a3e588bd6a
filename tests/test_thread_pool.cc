// Unit tests for the executor thread pool.
#include "engine/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace idf {
namespace {

// A one-shot gate that waiters can give up on after a deadline.
class Latch {
 public:
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  bool WaitFor(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [this] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

// Occupies every worker of `pool` until `release` opens, and returns once
// all of them are inside their task.
void BlockEveryWorker(ThreadPool& pool, Latch& release) {
  const int n = pool.num_threads();
  auto entered = std::make_shared<std::atomic<int>>(0);
  for (int i = 0; i < n; ++i) {
    pool.Submit([entered, &release] {
      entered->fetch_add(1);
      release.WaitFor(std::chrono::seconds(60));
    });
  }
  while (entered->load() < n) std::this_thread::yield();
}

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  std::mutex mu;
  std::condition_variable cv;
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] {
      if (count.fetch_add(1) + 1 == 100) {
        // Notify under the mutex: otherwise the waiter can observe the
        // count, finish the test, and destroy the cv mid-notify.
        std::lock_guard<std::mutex> guard(mu);
        cv.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return count.load() == 100; });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, ParallelForZeroIterations) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(0, [&](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, ParallelForSingleIterationRunsInline) {
  ThreadPool pool(2);
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id executed;
  pool.ParallelFor(1, [&](size_t) { executed = std::this_thread::get_id(); });
  EXPECT_EQ(executed, caller);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(8, [&](size_t) {
    pool.ParallelFor(8, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolTest, ParallelForMoreIterationsThanThreads) {
  ThreadPool pool(1);
  std::atomic<int> total{0};
  pool.ParallelFor(5000, [&](size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 5000);
}

TEST(ThreadPoolTest, SequentialParallelForsReusePool) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> total{0};
    pool.ParallelFor(100, [&](size_t) { total.fetch_add(1); });
    ASSERT_EQ(total.load(), 100);
  }
}

TEST(ThreadPoolTest, DestructorDrainsCleanly) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    pool.ParallelFor(64, [&](size_t) { count.fetch_add(1); });
  }
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolTest, NumThreadsReported) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3);
}

TEST(ParallelForRangeTest, CoversRangeExactlyOnceWithAlignedChunks) {
  ThreadPool pool(4);
  constexpr size_t kN = 10007;  // prime: the last chunk is ragged
  constexpr size_t kGrain = 64;
  std::vector<std::atomic<int>> hits(kN);
  std::atomic<int> bad_chunks{0};
  size_t chunks = pool.ParallelForRange(kN, kGrain, [&](size_t begin, size_t end) {
    if (begin % kGrain != 0 || end != std::min(kN, begin + kGrain)) {
      bad_chunks.fetch_add(1);
    }
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  EXPECT_EQ(chunks, (kN + kGrain - 1) / kGrain);
  EXPECT_EQ(bad_chunks.load(), 0);
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForRangeTest, EmptyRangeRunsNothing) {
  ThreadPool pool(2);
  bool ran = false;
  size_t chunks = pool.ParallelForRange(0, 64, [&](size_t, size_t) { ran = true; });
  EXPECT_EQ(chunks, 0u);
  EXPECT_FALSE(ran);
}

TEST(ParallelForRangeTest, SmallerThanGrainRunsInlineAsOneChunk) {
  ThreadPool pool(2);
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id executed;
  size_t seen_begin = 99;
  size_t seen_end = 0;
  size_t chunks = pool.ParallelForRange(10, 64, [&](size_t begin, size_t end) {
    executed = std::this_thread::get_id();
    seen_begin = begin;
    seen_end = end;
  });
  EXPECT_EQ(chunks, 1u);
  EXPECT_EQ(executed, caller);
  EXPECT_EQ(seen_begin, 0u);
  EXPECT_EQ(seen_end, 10u);
}

TEST(ParallelForRangeTest, ZeroGrainTreatedAsOne) {
  ThreadPool pool(2);
  std::atomic<size_t> covered{0};
  size_t chunks = pool.ParallelForRange(17, 0, [&](size_t begin, size_t end) {
    covered.fetch_add(end - begin);
  });
  EXPECT_EQ(chunks, 17u);
  EXPECT_EQ(covered.load(), 17u);
}

TEST(ParallelForRangeTest, NestedCallsFromWorkersRunInline) {
  ThreadPool pool(2);
  std::atomic<size_t> total{0};
  pool.ParallelForRange(256, 16, [&](size_t begin, size_t end) {
    // Reentrant use from a worker must not deadlock on the pool.
    pool.ParallelForRange(end - begin, 4, [&](size_t b, size_t e) {
      total.fetch_add(e - b);
    });
  });
  EXPECT_EQ(total.load(), 256u);
}

TEST(ParallelForCancelTest, PreCancelledTokenSkipsAllIterations) {
  ThreadPool pool(2);
  CancellationToken token;
  token.Cancel();
  std::atomic<int> ran{0};
  pool.ParallelFor(1000, [&](size_t) { ran.fetch_add(1); }, &token);
  EXPECT_EQ(ran.load(), 0);
}

TEST(ParallelForCancelTest, MidFlightCancelDrainsAndReturns) {
  ThreadPool pool(4);
  CancellationToken token;
  std::atomic<int> ran{0};
  // Cancel from inside iteration 100-ish; the call must still return (the
  // drain keeps the completion count moving) having skipped most work.
  pool.ParallelFor(100000, [&](size_t) {
    if (ran.fetch_add(1) == 100) token.Cancel();
  }, &token);
  EXPECT_LT(ran.load(), 100000);
}

TEST(ParallelForRangeCancelTest, PreCancelledTokenSkipsAllChunks) {
  ThreadPool pool(2);
  CancellationToken token;
  token.Cancel();
  std::atomic<int> ran{0};
  pool.ParallelForRange(10000, 64, [&](size_t, size_t) { ran.fetch_add(1); },
                        &token);
  EXPECT_EQ(ran.load(), 0);
}

TEST(ParallelForRangeCancelTest, MidFlightCancelStopsWithinFewChunks) {
  ThreadPool pool(4);
  CancellationToken token;
  std::atomic<int> chunks_run{0};
  pool.ParallelForRange(1 << 20, 256, [&](size_t, size_t) {
    if (chunks_run.fetch_add(1) == 3) token.Cancel();
  }, &token);
  // 2^20/256 = 4096 chunks total; after the cancel at chunk ~4, only
  // chunks already claimed by the workers may still run.
  EXPECT_LT(chunks_run.load(), 4096);
}

TEST(ParallelForRangeCancelTest, InlinePathChecksTokenBetweenChunks) {
  ThreadPool pool(2);
  CancellationToken token;
  int chunks_run = 0;
  // n <= grain*1? Use grain so the range runs inline on the caller: a
  // 10-row job with grain 64 is a single inline chunk, so cancel before.
  token.Cancel();
  pool.ParallelForRange(10, 64, [&](size_t, size_t) { ++chunks_run; }, &token);
  EXPECT_EQ(chunks_run, 0);
}

TEST(ParallelForCancelTest, NullTokenMeansNeverCancelled) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.ParallelFor(500, [&](size_t) { ran.fetch_add(1); }, nullptr);
  EXPECT_EQ(ran.load(), 500);
}

TEST(ParallelForRangeTest, SkewedPerChunkWorkCompletes) {
  ThreadPool pool(4);
  std::atomic<uint64_t> sum{0};
  // Chunk 0 does ~all the work; the cursor hands the rest to idle workers.
  pool.ParallelForRange(4096, 64, [&](size_t begin, size_t end) {
    uint64_t local = 0;
    size_t spins = begin == 0 ? 200000 : 10;
    for (size_t s = 0; s < spins; ++s) local += s % 7;
    for (size_t i = begin; i < end; ++i) local += 1;
    sum.fetch_add(local >= (end - begin) ? end - begin : 0);
  });
  EXPECT_EQ(sum.load(), 4096u);
}

TEST(ParallelForRangeTest, CallerFinishesAJobWhileEveryWorkerIsBlocked) {
  Latch release;  // outlives the pool, whose workers wait on it
  ThreadPool pool(2);
  BlockEveryWorker(pool, release);
  // A watchdog opens the latch if the call has not returned in time, so a
  // caller that waits for the workers fails the test instead of hanging.
  Latch call_returned;
  std::atomic<bool> timed_out{false};
  std::thread watchdog([&] {
    if (!call_returned.WaitFor(std::chrono::seconds(10))) {
      timed_out.store(true);
      release.Open();
    }
  });
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> off_caller{0};
  std::atomic<int> chunks_run{0};
  const size_t chunks = pool.ParallelForRange(64 * 16, 16, [&](size_t, size_t) {
    if (std::this_thread::get_id() != caller) off_caller.fetch_add(1);
    chunks_run.fetch_add(1);
  });
  call_returned.Open();
  release.Open();
  watchdog.join();
  EXPECT_EQ(chunks, 64u);
  EXPECT_EQ(chunks_run.load(), 64);
  EXPECT_FALSE(timed_out.load()) << "the call waited for blocked workers";
  EXPECT_EQ(off_caller.load(), 0);
}

TEST(ParallelForRangeTest, CallerRunsNestedCallsInline) {
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  // Helpers hold their chunks until the caller has run one of its own, so
  // the caller always does; the deadline bounds the wait for a caller
  // that never works.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::atomic<int> caller_chunks{0};
  std::atomic<int> nested_chunks{0};
  std::atomic<int> nested_off_caller{0};
  pool.ParallelForRange(16, 1, [&](size_t, size_t) {
    if (std::this_thread::get_id() != caller) {
      while (caller_chunks.load() == 0 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      return;
    }
    caller_chunks.fetch_add(1);
    // Slow enough chunks that idle workers would take some of them if the
    // nested call fanned out.
    pool.ParallelForRange(32, 1, [&](size_t, size_t) {
      if (std::this_thread::get_id() != caller) nested_off_caller.fetch_add(1);
      nested_chunks.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    });
  });
  EXPECT_GT(caller_chunks.load(), 0);
  EXPECT_EQ(nested_chunks.load(), caller_chunks.load() * 32);
  EXPECT_EQ(nested_off_caller.load(), 0);
}

// Counts copies of the lambda that captures it.
struct CopyCounter {
  explicit CopyCounter(std::atomic<int>* copies) : copies(copies) {}
  CopyCounter(const CopyCounter& other) : copies(other.copies) {
    copies->fetch_add(1);
  }
  CopyCounter& operator=(const CopyCounter&) = delete;
  std::atomic<int>* copies;
};

TEST(ParallelForRangeTest, LateHelpersNeverRunTheBody) {
  std::atomic<int> late_calls{0};
  std::atomic<int> body_copies{0};
  {
    ThreadPool pool(2);
    for (int job = 0; job < 2000; ++job) {
      // `returned` lives on the heap so a late call can still read it; the
      // chunk counter is a stack local that dies with this iteration.
      auto returned = std::make_shared<std::atomic<bool>>(false);
      std::atomic<int> chunks_run{0};
      // Chunks of a few microseconds let a waking helper claim some, which
      // the caller must then wait for; most helpers still arrive late.
      auto body = [&chunks_run, &late_calls, returned,
                   counter = CopyCounter(&body_copies)](size_t, size_t) {
        if (returned->load()) late_calls.fetch_add(1);
        const auto until =
            std::chrono::steady_clock::now() + std::chrono::microseconds(2);
        while (std::chrono::steady_clock::now() < until) {
        }
        chunks_run.fetch_add(1);
      };
      const int chunks = 2 + job % 3;
      pool.ParallelForRange(static_cast<size_t>(chunks), 1, body);
      returned->store(true);
      ASSERT_EQ(chunks_run.load(), chunks) << "job " << job;
    }
  }  // Joining the pool runs every helper still queued.
  EXPECT_EQ(late_calls.load(), 0);
  EXPECT_EQ(body_copies.load(), 0) << "the body was copied per call";
}

}  // namespace
}  // namespace idf
