// loadmix.hpp — the workload built on benchkit::loadgen::run_point: one
// point of the five-class request mix on the default 2-blade topology, with
// no checkpoints and no faults.
#pragma once

#include <cstdint>
#include <optional>

#include "bench.hpp"
#include "benchkit/loadgen.hpp"
#include "mpisim/reliable.hpp"

namespace hostbench {

/// Offered load of every point (msg/s), below the default topology's knee.
inline constexpr double kLoadRps = 8000;

/// One run_point call and what the benchmark read around it.
struct PointRun {
  benchkit::loadgen::PointResult result;
  double wall_s = 0;  ///< host
  double cpu_s = 0;   ///< host, process user+sys
  std::uint64_t messages = 0;  ///< metrics snapshot, all routes
  mpisim::reliable::Totals net;  ///< reliable sublayer, this point only
  std::uint64_t digest = 0;      ///< virtual outputs (see digest_point)
};

/// Runs one point of `seed`.  `setup_only` gives it a zero horizon: no
/// arrivals, only the consumers' shutdown sentinels move.
PointRun run_one_point(std::uint64_t seed, bool setup_only);

/// FNV-1a over every virtual-time field of the result (per-class counts,
/// rates and percentiles, supervision counters, degraded window, metrics
/// snapshot, telemetry timelines).
std::uint64_t digest_point(const benchkit::loadgen::PointResult& r);

/// The pinned digest for `seed`, when one is pinned.
std::optional<std::uint64_t> pinned_digest(std::uint64_t seed, bool skew);

/// Checks a measured point and counts its ops into `tally`: one op per
/// offered message, failed when its class surfaced an error, plus the
/// oracle checks.  `reference` is the digest every point of the run must
/// reproduce (the pinned one, or the run's first point on other seeds).
void check_point(const PointRun& run, std::uint64_t reference,
                 const char* reference_kind, Tally& tally);

}  // namespace hostbench
