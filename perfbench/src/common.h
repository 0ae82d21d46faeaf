// Shared helpers of the benchmark harness: seeded randomness, sample
// statistics, CPU pinning, peak-RSS readout and the result record.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// splitmix64: every seeded stream of the benchmark (sample indices, update
// batches, reader min_pts sequences) derives from the run's --seed through
// this, so equal seeds give equal inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  // Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

// Derives an independent stream seed for one purpose of one run.
inline uint64_t SubSeed(uint64_t seed, uint64_t purpose) {
  Rng r(seed * 0x100000001b3ull + purpose);
  return r.Next();
}

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// q-quantile (0..1) by linear interpolation between order statistics.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// Pins the calling thread to one CPU of the process's allowed set for the
// scope, so single-worker samples do not migrate between cores; restores
// the full set on exit. Scheduler workers created while unpinned inherit
// the full set.
class ScopedPin {
 public:
  explicit ScopedPin(bool enable) {
    if (!enable) return;
    if (pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_) != 0) {
      return;
    }
    int last = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) last = c;
    }
    if (last < 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(last, &one);
    pinned_ = pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
  }
  ~ScopedPin() {
    if (pinned_) pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
  }
  ScopedPin(const ScopedPin&) = delete;
  ScopedPin& operator=(const ScopedPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

// Peak resident set of this process (VmHWM), in MB.
inline double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

// The run's result: the last stdout line, one JSON object.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // name -> (value, unit), printed in name order.
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::vector<std::string> problems;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }

  void Print() const {
    for (const std::string& p : problems) {
      std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
    }
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    char buf[64];
    for (const auto& [name, vu] : metrics) {
      if (!first) out += ", ";
      first = false;
      std::snprintf(buf, sizeof(buf), "%.17g", vu.first);
      out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             vu.second + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
