// spans.hpp — the traced run's host-time spans.
//
// A span is {name, start, end, parent, request}: the benchmark records one
// around each of its own calls into the program's public API (PI_*,
// cellpilot::run, cluster::Cluster, benchkit::loadgen::run_point,
// ckpt::serialize/deserialize).  Spans of one round trip share a request
// id.  They stay in memory until the run ends, then go to their own JSON
// file — never into the simulator's byte-identical trace, metrics or
// telemetry reports.
//
// A disabled log records nothing: every entry point is one branch, so the
// untraced run pays for no span bookkeeping.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace hostbench {

struct Span {
  const char* name = "";  ///< static string
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index into the log, -1 for a root
  std::uint64_t request = 0;
};

/// Per-name aggregate: how many spans, their total duration, and their
/// total self time (duration minus the part children cover).
struct SpanTotals {
  std::uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
  std::vector<double> durations_ns;
  std::vector<double> self_samples_ns;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span; returns its id (-1 when disabled).  Safe to
  /// call from any thread: the simulator runs SPE and rank bodies on their
  /// own host threads.
  int add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
          int parent, std::uint64_t request);

  /// Opens a span whose end is not known yet; close() fills it in.
  int open(const char* name, std::int64_t start_ns, int parent,
           std::uint64_t request);
  void close(int id, std::int64_t end_ns);

  /// A fresh request id.
  std::uint64_t next_request();

  /// Per-name totals with self time.  Call once recording has stopped.
  std::map<std::string, SpanTotals> totals() const;

  /// Writes every span as JSON.  Returns false on an I/O failure.
  bool write_json(const std::string& path) const;

  std::size_t size() const;

 private:
  bool enabled_;
  mutable std::mutex mu_;  // guards spans_ and next_request_
  std::vector<Span> spans_;
  std::uint64_t next_request_ = 1;
};

}  // namespace hostbench
