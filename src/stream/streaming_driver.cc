#include "stream/streaming_driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

namespace idf {

void LatencyRecorder::Merge(const LatencyRecorder& other) {
  samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
}

double LatencyRecorder::Mean() const {
  if (samples_.empty()) return 0;
  double sum = 0;
  for (double s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

double LatencyRecorder::Percentile(double p) const {
  if (samples_.empty()) return 0;
  std::sort(samples_.begin(), samples_.end());
  double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, samples_.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return samples_[lo] * (1 - frac) + samples_[hi] * frac;
}

std::string StreamingReport::ToString() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "streaming{batches=%zu rows=%zu queries=%zu final_rows=%zu wall=%.2fs "
      "append_us{mean=%.1f p50=%.1f p99=%.1f} "
      "query_us{mean=%.1f p50=%.1f p99=%.1f}}",
      batches_appended, rows_appended, queries_run, final_rows, wall_seconds,
      append_latency.Mean(), append_latency.Percentile(50),
      append_latency.Percentile(99), query_latency.Mean(),
      query_latency.Percentile(50), query_latency.Percentile(99));
  return std::string(buf);
}

Result<StreamingReport> RunStreamingWorkload(
    const IndexedDataFrame& idf,
    const std::function<RowVec(size_t batch_no)>& make_batch,
    const std::function<Status()>& query, const StreamingConfig& config) {
  using Clock = std::chrono::steady_clock;
  StreamingReport report;
  BoundedQueue<RowVec> queue(config.queue_capacity);
  std::atomic<bool> stop_queries{false};
  std::atomic<bool> failed{false};
  Status first_error;
  std::mutex error_mu;

  auto record_error = [&](const Status& st) {
    std::lock_guard<std::mutex> lock(error_mu);
    if (first_error.ok()) first_error = st;
    failed.store(true);
  };

  auto start = Clock::now();

  // Producer: the Kafka stand-in.
  std::thread producer([&] {
    for (size_t b = 0; b < config.num_batches && !failed.load(); ++b) {
      if (!queue.Push(make_batch(b))) return;
    }
    queue.Close();
  });

  // Query threads: run against snapshots while the stream flows.
  std::vector<std::thread> query_threads;
  std::vector<LatencyRecorder> query_recorders(
      static_cast<size_t>(std::max(0, config.num_query_threads)));
  std::vector<size_t> query_counts(query_recorders.size(), 0);
  for (size_t t = 0; t < query_recorders.size(); ++t) {
    query_threads.emplace_back([&, t] {
      // do-while: every query thread runs at least one query, even when
      // the appender drains the stream before the thread is scheduled.
      do {
        auto q0 = Clock::now();
        Status st = query();
        auto q1 = Clock::now();
        if (!st.ok()) {
          record_error(st);
          return;
        }
        query_recorders[t].Add(
            std::chrono::duration<double, std::micro>(q1 - q0).count());
        ++query_counts[t];
        if (config.query_pause_micros > 0) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(config.query_pause_micros));
        }
      } while (!stop_queries.load(std::memory_order_acquire));
    });
  }

  // Appender: drain the queue into the Indexed DataFrame (this thread).
  for (;;) {
    std::optional<RowVec> batch = queue.Pop();
    if (!batch.has_value()) break;
    auto a0 = Clock::now();
    Status st = config.append_override != nullptr
                    ? config.append_override(*batch)
                    : idf.AppendRowsDirect(*batch);
    auto a1 = Clock::now();
    if (!st.ok()) {
      record_error(st);
      queue.Close();
      break;
    }
    report.append_latency.Add(
        std::chrono::duration<double, std::micro>(a1 - a0).count());
    report.rows_appended += batch->size();
    ++report.batches_appended;
  }

  stop_queries.store(true, std::memory_order_release);
  producer.join();
  for (auto& t : query_threads) t.join();

  report.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  for (size_t t = 0; t < query_recorders.size(); ++t) {
    report.query_latency.Merge(query_recorders[t]);
    report.queries_run += query_counts[t];
  }
  report.final_rows = idf.NumRows();

  IDF_RETURN_NOT_OK(first_error);
  return report;
}

}  // namespace idf
