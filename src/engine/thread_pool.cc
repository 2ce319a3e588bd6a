#include "engine/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "common/logging.h"

namespace idf {

thread_local bool ThreadPool::is_worker_ = false;

ThreadPool::ThreadPool(int num_threads) {
  IDF_CHECK_GE(num_threads, 1);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  is_worker_ = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (shutdown_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

// One fan-out. Helpers hold it by shared_ptr because a helper may be
// dequeued after the caller returned; such a helper only touches the
// cursor. `body` and `cancel` belong to the caller and are dereferenced
// only for a claimed chunk, which the caller waits for.
struct ThreadPool::Job {
  const size_t n;
  const size_t grain;
  const size_t num_chunks;
  const CancellationToken* const cancel;
  void* const body;
  const ChunkFn call;
  std::atomic<size_t> cursor{0};  // next chunk to claim
  std::atomic<size_t> done{0};    // chunks finished (run or drained)
  std::mutex mu{};
  std::condition_variable cv{};

  // Claims and runs chunks until the cursor runs out. Returns true when
  // this thread finished the job's last chunk.
  bool Work() {
    bool finished_last = false;
    for (;;) {
      const size_t chunk = cursor.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= num_chunks) return finished_last;
      // A stopped job drains its remaining chunks (counting them done)
      // without running the body, freeing every thread within one morsel.
      if (cancel == nullptr || !cancel->stop_requested()) {
        const size_t begin = chunk * grain;
        call(body, begin, std::min(n, begin + grain));
      }
      finished_last =
          done.fetch_add(1, std::memory_order_acq_rel) + 1 == num_chunks;
    }
  }
};

// Waking a sleeping worker costs the waker several microseconds, so the
// caller wakes one helper and each helper wakes the next before it starts
// work, while chunks remain.
void ThreadPool::AddHelper(std::shared_ptr<Job> job, size_t more) {
  Submit([this, job = std::move(job), more] {
    if (more > 0 &&
        job->cursor.load(std::memory_order_relaxed) < job->num_chunks) {
      AddHelper(job, more - 1);
    }
    if (job->Work()) {
      std::lock_guard<std::mutex> lock(job->mu);
      job->cv.notify_one();
    }
  });
}

size_t ThreadPool::RunChunks(size_t n, size_t grain,
                             const CancellationToken* cancel, void* body,
                             ChunkFn call) {
  if (n == 0) return 0;
  if (grain == 0) grain = 1;
  const size_t num_chunks = (n + grain - 1) / grain;
  // One chunk needs no helper, and a fan-out from inside a chunk runs
  // inline: the pool's threads are already busy with the outer job.
  if (num_chunks == 1 || is_worker_) {
    Job(n, grain, num_chunks, cancel, body, call).Work();
    return num_chunks;
  }
  auto job = std::make_shared<Job>(n, grain, num_chunks, cancel, body, call);
  const size_t helpers =
      std::min(num_chunks - 1, static_cast<size_t>(num_threads()));
  AddHelper(job, helpers - 1);
  is_worker_ = true;
  job->Work();
  is_worker_ = false;
  if (job->done.load(std::memory_order_acquire) != num_chunks) {
    std::unique_lock<std::mutex> lock(job->mu);
    job->cv.wait(lock, [&] {
      return job->done.load(std::memory_order_acquire) == num_chunks;
    });
  }
  return num_chunks;
}

}  // namespace idf
