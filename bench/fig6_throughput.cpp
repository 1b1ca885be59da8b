// fig6_throughput.cpp — regenerates the paper's Figure 6: throughput for
// the array case (100 long doubles = 1600 bytes) across the five channel
// types and three methods.
//
// Usage: fig6_throughput [reps]
//
// Alongside the human table on stdout, the same numbers are written to
// BENCH_fig6_throughput.json (note on stderr) for plotting and regression
// tracking.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "benchkit/args.hpp"
#include "benchkit/benchjson.hpp"
#include "benchkit/pingpong.hpp"

int main(int argc, char** argv) {
  const int reps =
      argc > 1
          ? benchkit::positive_count(argv[1], "usage: fig6_throughput [reps]")
          : 1000;
  const simtime::CostModel cost = simtime::default_cost_model();
  const benchkit::Method methods[] = {benchkit::Method::kCellPilot,
                                      benchkit::Method::kDma,
                                      benchkit::Method::kCopy};

  std::printf(
      "Figure 6: throughput for CellPilot vs hand-coded transfers\n"
      "payload: 100 long doubles (1600 bytes), %d reps\n\n",
      reps);
  benchkit::BenchJson json("fig6_throughput");
  json.meta("unit", "MB/s")
      .meta("bytes", static_cast<std::int64_t>(1600))
      .meta("reps", static_cast<std::int64_t>(reps));

  std::printf("%-6s %-10s %14s\n", "type", "method", "MB/s");
  double values[6][3];
  for (int type = 1; type <= 5; ++type) {
    for (int m = 0; m < 3; ++m) {
      benchkit::PingPongSpec spec;
      spec.type = static_cast<cellpilot::ChannelType>(type);
      spec.bytes = 1600;
      spec.reps = reps;
      // One run per cell: derive the mean and the percentile bands from
      // the same stats (throughput_mbps would re-run the simulation).
      const benchkit::PingPongStats stats =
          benchkit::pingpong_stats(spec, methods[m], cost);
      auto mbps_of = [&](simtime::SimTime one_way) {
        if (one_way <= 0) return 0.0;
        return static_cast<double>(spec.bytes) / 1e6 /
               (static_cast<double>(one_way) / 1e9);
      };
      values[type][m] = mbps_of(stats.one_way);
      std::printf("%-6d %-10s %14.2f\n", type,
                  benchkit::to_string(methods[m]), values[type][m]);
      json.add_row()
          .set("type", static_cast<std::int64_t>(type))
          .set("method", std::string(benchkit::to_string(methods[m])))
          .set("mbps", values[type][m])
          // p50/p99 of the per-rep latency distribution, as throughput:
          // mbps_p99 is the slow tail (99th-percentile latency), so
          // mbps_p99 <= mbps_p50 by construction.
          .set("mbps_p50", mbps_of(stats.p50))
          .set("mbps_p99", mbps_of(stats.p99));
    }
  }

  std::printf("\n%26s (each char ~ 2 MB/s)\n", "");
  for (int type = 1; type <= 5; ++type) {
    for (int m = 0; m < 3; ++m) {
      const int len = static_cast<int>(values[type][m] / 2.0 + 0.5);
      std::printf("T%d %-10s |%s\n", type, benchkit::to_string(methods[m]),
                  std::string(static_cast<std::size_t>(len), '#').c_str());
    }
  }
  json.write_file("BENCH_fig6_throughput.json");
  return 0;
}
