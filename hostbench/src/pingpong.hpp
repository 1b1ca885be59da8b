// pingpong.hpp — the benchmark's own closed-loop round-trip app.
//
// One client, one message in flight: blocking 1 B PI_Write -> PI_Read
// round trips on one Table I route, with the endpoints placed exactly as
// benchkit::pingpong places them.  The benchmark owns the app so that it
// can time every call; the virtual one-way latency it measures must equal
// benchkit::pingpong's (the pinned oracle below).
#pragma once

#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "spans.hpp"

namespace hostbench {

/// Payload size of every round trip.
inline constexpr int kPingPongBytes = 1;

/// Outcome of one cellpilot::run of the app on one route.
struct RouteRun {
  int type = 1;
  int reps = 0;
  std::vector<double> rtt_ns;    ///< host, per rep: write start -> read end
  std::vector<double> write_ns;  ///< host, per rep: PI_Write
  std::vector<double> read_ns;   ///< host, per rep: PI_Read
  double wall_s = 0;   ///< host: cluster build -> run return -> teardown
  std::int64_t one_way_ns = 0;  ///< virtual: elapsed / (2 * reps)
  std::uint64_t messages = 0;   ///< PI_GetChannelStats, both channels
  std::uint64_t copilot_hops = 0;
  std::uint64_t good_reps = 0;  ///< round trips that echoed correctly
  bool aborted = false;
};

/// Runs `reps` round trips on route `type` (1..5) over a fresh cluster.
/// `reps` == 0 builds, starts and stops the same topology with no
/// application message: the set-up measurement.  `salt` seeds the payload
/// bytes.  Spans go to `spans` under `parent`.
RouteRun run_route(int type, int reps, std::uint64_t salt, SpanLog& spans,
                   int parent);

/// The pinned virtual one-way latency (ns) of 1000 1 B round trips on
/// `type` (seed-independent: the seed only picks payload bytes and route
/// order).  `skew` shifts it by one (self-test).
std::int64_t pinned_one_way_ns(int type, bool skew);

/// The five routes in a seed-determined order.
std::vector<int> route_order(std::uint64_t& state);

/// Round-trip figures per route, collected across route runs.  Round-trip
/// percentiles are taken per route run (1000 round trips: ten samples
/// beyond p99) and summarized as their median over the runs, so a burst of
/// host noise during one run moves one sample, not the whole tail.
struct RouteSamples {
  std::vector<double> rtt_p50_ns[6];  ///< one per route run
  std::vector<double> rtt_p95_ns[6];  ///< one per route run
  std::vector<double> rtt_p99_ns[6];  ///< one per route run
  std::size_t round_trips[6] = {};
  std::vector<double> write_ns[6];  ///< pooled per call
  std::vector<double> read_ns[6];   ///< pooled per call
  std::vector<double> hops_per_rtt[6];

  void add(const RouteRun& run);
};

/// Checks a route run against the oracle and counts its ops into `tally`:
/// one op per round trip plus one oracle check.
void check_route(const RouteRun& run, bool skew, Tally& tally);

}  // namespace hostbench
