// fig5_latency.cpp — regenerates the paper's Figure 5: grouped bars of
// one-way latency per channel type and method; each bar's lower (solid)
// portion is the 1-byte time, the upper (hashed) portion the extra time at
// 1600 bytes.  Printed here as the series a plotting script would consume,
// plus an ASCII rendering.
//
// Usage: fig5_latency [reps]
//
// Alongside the human table on stdout, the same numbers are written to
// BENCH_fig5_latency.json (note on stderr) for plotting and regression
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
          ? benchkit::positive_count(argv[1], "usage: fig5_latency [reps]")
          : 1000;
  const simtime::CostModel cost = simtime::default_cost_model();
  const benchkit::Method methods[] = {benchkit::Method::kCellPilot,
                                      benchkit::Method::kDma,
                                      benchkit::Method::kCopy};

  double one_byte[6][3];
  double big[6][3];

  benchkit::BenchJson json("fig5_latency");
  json.meta("unit", "us").meta("reps", static_cast<std::int64_t>(reps));

  std::printf("Figure 5: latencies for CellPilot vs hand-coded transfers\n");
  std::printf("%-6s %-10s %14s %14s\n", "type", "method", "1B (us)",
              "1600B (us)");
  for (int type = 1; type <= 5; ++type) {
    for (int m = 0; m < 3; ++m) {
      benchkit::PingPongSpec spec;
      spec.type = static_cast<cellpilot::ChannelType>(type);
      spec.reps = reps;
      spec.bytes = 1;
      const benchkit::PingPongStats small_stats =
          benchkit::pingpong_stats(spec, methods[m], cost);
      one_byte[type][m] = simtime::to_us(small_stats.one_way);
      spec.bytes = 1600;
      const benchkit::PingPongStats big_stats =
          benchkit::pingpong_stats(spec, methods[m], cost);
      big[type][m] = simtime::to_us(big_stats.one_way);
      std::printf("%-6d %-10s %14.1f %14.1f\n", type,
                  benchkit::to_string(methods[m]), one_byte[type][m],
                  big[type][m]);
      json.add_row()
          .set("type", static_cast<std::int64_t>(type))
          .set("method", std::string(benchkit::to_string(methods[m])))
          .set("one_byte_us", one_byte[type][m])
          .set("one_byte_p50_us", simtime::to_us(small_stats.p50))
          .set("one_byte_p99_us", simtime::to_us(small_stats.p99))
          .set("big_us", big[type][m])
          .set("big_p50_us", simtime::to_us(big_stats.p50))
          .set("big_p99_us", simtime::to_us(big_stats.p99));
    }
  }

  // ASCII bars: '#' = 1-byte portion, '/' = additional 1600-byte portion.
  std::printf("\n%38s (each char ~ 5 us)\n", "");
  for (int type = 1; type <= 5; ++type) {
    for (int m = 0; m < 3; ++m) {
      const int solid = static_cast<int>(one_byte[type][m] / 5.0 + 0.5);
      const int hashed =
          static_cast<int>((big[type][m] - one_byte[type][m]) / 5.0 + 0.5);
      std::printf("T%d %-10s |%s%s\n", type, benchkit::to_string(methods[m]),
                  std::string(static_cast<std::size_t>(solid), '#').c_str(),
                  std::string(static_cast<std::size_t>(hashed), '/').c_str());
    }
  }
  json.write_file("BENCH_fig5_latency.json");
  return 0;
}
