// Measurement helpers for the end-to-end demo benchmark: nearest-rank
// percentiles, the open-loop arrival schedule, idle-priority CPU spinners,
// CPU placement, an in-memory span recorder and the one-line JSON result.
// Kept free of engine types so the harness self-test exercises exactly the
// arithmetic the benchmark reports with.
#pragma once

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline int64_t NanosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty. `p` is
/// in (0, 100]: the smallest sample with at least p% of samples <= it.
inline double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

inline double Median(std::vector<double> v) { return Percentile(v, 50); }

/// Geometric mean of positive values; 0 when empty.
inline double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// Keeps every CPU the process may use out of the idle halt: one thread
/// per CPU, pinned to it, spinning at SCHED_IDLE priority. An ordinary
/// thread that wakes on that CPU preempts it at once, so it takes no time
/// from the server or the load. What it saves is the wake-up of a halted
/// virtual CPU, an exit to the hypervisor whose cost follows the load of
/// the machine's other tenants and, without it, was the larger part of an
/// open-loop read's latency (README.md).
class IdleSpinners {
 public:
  IdleSpinners() {
    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    if (sched_getaffinity(0, sizeof(cpus), &cpus) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &cpus)) threads_.emplace_back([this, c] { Spin(c); });
    }
  }
  ~IdleSpinners() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) t.join();
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  void Spin(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_param sp{};
    // A spinner that could not drop to idle priority would compete with
    // the server, so it ends instead.
    if (pthread_setaffinity_np(pthread_self(), sizeof(one), &one) != 0 ||
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &sp) != 0) {
      return;
    }
    while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  }

  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// CPU placement: the load generator gets the first CPU the process may
/// use, the server everything else. Threads inherit their creator's mask,
/// so confining the main thread before set-up confines every thread the
/// server, the engine and the update stream start. Without it the guest
/// scheduler now and then put an io thread on the vCPU where the
/// generator spins, and the two took turns for as long as that lasted.
class Placement {
 public:
  /// Confines the calling (main) thread to the server's CPUs. A process
  /// with one CPU keeps everything on it.
  void Confine() {
    cpu_set_t all;
    CPU_ZERO(&all);
    if (sched_getaffinity(0, sizeof(all), &all) != 0 || CPU_COUNT(&all) < 2) return;
    CPU_ZERO(&load_);
    server_ = all;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all)) {
        CPU_SET(c, &load_);
        CPU_CLR(c, &server_);
        break;
      }
    }
    on_ = pthread_setaffinity_np(pthread_self(), sizeof(server_), &server_) == 0;
  }

  /// Moves the calling thread to the load generator's CPU while in scope.
  class OnLoadCpu {
   public:
    explicit OnLoadCpu(const Placement& p) : p_(p) {
      if (p_.on_) pthread_setaffinity_np(pthread_self(), sizeof(p_.load_), &p_.load_);
    }
    ~OnLoadCpu() {
      if (p_.on_) pthread_setaffinity_np(pthread_self(), sizeof(p_.server_), &p_.server_);
    }
    OnLoadCpu(const OnLoadCpu&) = delete;
    OnLoadCpu& operator=(const OnLoadCpu&) = delete;

   private:
    const Placement& p_;
  };

 private:
  cpu_set_t load_{}, server_{};
  bool on_ = false;
};

/// A fixed-rate open-loop schedule: arrival i of a stream is due at
/// start + phase + i / rate, whatever happened to earlier arrivals. The
/// phase (a fraction of one interval) comes from the workload seed.
struct Schedule {
  Clock::time_point start;
  double rate_per_s = 1;
  double phase = 0;  // in [0, 1) intervals

  Clock::time_point Due(uint64_t i) const {
    const double secs = (static_cast<double>(i) + phase) / rate_per_s;
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(secs));
  }
};

/// Latency of one request: from when it was due, not from when it was
/// sent, so a stall also counts against the requests queued behind it.
inline double LatencyFromDueUs(Clock::time_point due, Clock::time_point done) {
  return static_cast<double>(NanosBetween(due, done)) / 1000.0;
}

/// One traced interval. Spans of one request share `trace_id`; `parent`
/// is the index of the causing span inside the same recorder (-1: root).
struct Span {
  const char* name;
  uint64_t trace_id;
  int64_t parent;
  int64_t start_ns;
  int64_t end_ns;
};

/// Spans are kept in memory per thread and written once at the end.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  int64_t Add(const char* name, uint64_t trace_id, int64_t parent,
              Clock::time_point start, Clock::time_point end) {
    spans_.push_back(Span{name, trace_id, parent, NanosBetween(origin_, start),
                          NanosBetween(origin_, end)});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Writes every span of every log as one JSON object per line.
inline bool WriteSpans(const std::string& path,
                       const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  if (!out) return false;
  for (size_t t = 0; t < logs.size(); ++t) {
    for (const Span& s : logs[t]->spans()) {
      out << "{\"thread\":" << t << ",\"name\":\"" << s.name
          << "\",\"trace\":" << s.trace_id << ",\"parent\":" << s.parent
          << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << "}\n";
    }
  }
  return static_cast<bool>(out);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The benchmark's last stdout line.
inline std::string ResultJson(bool correct, uint64_t attempted,
                              uint64_t failed,
                              const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

/// Process high-water resident set (VmHWM) in MiB; 0 if unreadable.
inline double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// Last-level cache size in bytes from sysfs; 0 if unknown.
inline uint64_t LastLevelCacheBytes() {
  uint64_t best = 0;
  for (int i = 0; i < 8; ++i) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                     std::to_string(i) + "/size");
    std::string s;
    if (!(in >> s) || s.empty()) continue;
    uint64_t v = std::strtoull(s.c_str(), nullptr, 10);
    if (s.back() == 'K') v <<= 10;
    if (s.back() == 'M') v <<= 20;
    best = std::max(best, v);
  }
  return best;
}

}  // namespace e2e
