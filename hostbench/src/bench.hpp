// bench.hpp — shared vocabulary of the host-time benchmark.
//
// Everything here measures *host* time (std::chrono::steady_clock, rusage).
// Virtual time is read only to check it against the pinned oracle values;
// host-time numbers never flow back into the simulator or its report files.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace hostbench {

/// Host nanoseconds on the steady clock.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process user+sys CPU seconds so far.
double cpu_seconds();

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Median (mean of the two middle values for even counts); 0 when empty.
double median(std::vector<double> values);

/// Nearest-rank percentile (`pct` in 1..100); 0 when empty.
double nearest_rank(std::vector<double> values, int pct);

/// Keeps a computed value alive so a timing loop is not optimized away.
template <class T>
inline void keep(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

/// FNV-1a 64 over a canonical byte sequence (the virtual-output digest).
class Digest {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ull;
    }
  }
  template <class T>
  void pod(const T& value) {
    unsigned char raw[sizeof(T)];
    std::memcpy(raw, &value, sizeof(T));
    bytes(raw, sizeof(T));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 1;  ///< values the figure was computed from
};

/// The run's metric list, in report order.
class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::size_t samples = 1) {
    metrics_.push_back({std::move(name), value, std::move(unit), samples});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Ops attempted and failed, plus the oracle mismatches behind failures.
/// A mismatch is printed and counted, never retried away.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void ops(std::uint64_t n, std::uint64_t n_failed) {
    attempted += n;
    failed += n_failed;
  }
  /// One oracle check: counts as an op, fails with `what` when !ok.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      problems.push_back(what);
    }
  }
};

/// Command-line settings of one benchmark run.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/hostbench-out";
  /// Self-test hook: shifts every pinned oracle value by one, so a run must
  /// report the mismatch.
  bool skew_oracle = false;
};

/// splitmix64 step (the seed mixer used throughout the benchmark).
inline std::uint64_t mix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace hostbench
