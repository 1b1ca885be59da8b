// table2_pingpong.cpp — regenerates the paper's Table II:
// "CellPilot vs hand-coded timing (µs)" — 5 channel types × {1 B, 1600 B}
// payloads × {CellPilot, DMA, Copy} methods, measured with the IMB-style
// PingPong pattern (1000 bounces, one-way time = elapsed / 2N).
//
// Usage: table2_pingpong [reps]
//
// Alongside the human table on stdout, the same numbers are written to
// BENCH_table2.json (note on stderr) for plotting and regression tracking.
#include <cstdio>
#include <cstdlib>

#include "benchkit/args.hpp"
#include "benchkit/benchjson.hpp"
#include "benchkit/pingpong.hpp"

int main(int argc, char** argv) {
  const int reps =
      argc > 1
          ? benchkit::positive_count(argv[1], "usage: table2_pingpong [reps]")
          : 1000;
  const simtime::CostModel cost = simtime::default_cost_model();

  // The paper's reference numbers, for side-by-side comparison.
  struct PaperRow {
    int type;
    std::size_t bytes;
    double cellpilot, dma, copy;
  };
  static constexpr PaperRow kPaper[] = {
      {1, 1, 105, 98, 98},     {1, 1600, 173, 160, 160},
      {2, 1, 59, 15, 15},      {2, 1600, 76, 15, 30},
      {3, 1, 140, 114, 107},   {3, 1600, 219, 181, 175},
      {4, 1, 112, 30, 30},     {4, 1600, 123, 30, 60},
      {5, 1, 189, 131, 117},   {5, 1600, 263, 195, 194},
  };

  benchkit::BenchJson json("table2_pingpong");
  json.meta("unit", "us").meta("reps", static_cast<std::int64_t>(reps));

  std::printf("Table II: CellPilot vs hand-coded timing (us), %d reps\n",
              reps);
  std::printf("%-5s %-6s | %10s %10s %10s | %10s %10s %10s\n", "Type",
              "Bytes", "CellPilot", "DMA", "Copy", "(paper CP)", "(DMA)",
              "(Copy)");
  std::printf("--------------------------------------------------------------"
              "---------------\n");

  for (const PaperRow& row : kPaper) {
    benchkit::PingPongSpec spec;
    spec.type = static_cast<cellpilot::ChannelType>(row.type);
    spec.bytes = row.bytes;
    spec.reps = reps;

    // One run per cell: the stats carry the exact mean the old
    // pingpong_us reported plus per-rep percentiles for the JSON.
    const benchkit::PingPongStats cp_stats =
        benchkit::pingpong_stats(spec, benchkit::Method::kCellPilot, cost);
    const benchkit::PingPongStats dma_stats =
        benchkit::pingpong_stats(spec, benchkit::Method::kDma, cost);
    const benchkit::PingPongStats copy_stats =
        benchkit::pingpong_stats(spec, benchkit::Method::kCopy, cost);
    const double cp = simtime::to_us(cp_stats.one_way);
    const double dma = simtime::to_us(dma_stats.one_way);
    const double copy = simtime::to_us(copy_stats.one_way);

    std::printf("%-5d %-6zu | %10.1f %10.1f %10.1f | %10.0f %10.0f %10.0f\n",
                row.type, row.bytes, cp, dma, copy, row.cellpilot, row.dma,
                row.copy);

    json.add_row()
        .set("type", static_cast<std::int64_t>(row.type))
        .set("bytes", static_cast<std::int64_t>(row.bytes))
        .set("cellpilot_us", cp)
        .set("cellpilot_p50_us", simtime::to_us(cp_stats.p50))
        .set("cellpilot_p99_us", simtime::to_us(cp_stats.p99))
        .set("dma_us", dma)
        .set("dma_p50_us", simtime::to_us(dma_stats.p50))
        .set("dma_p99_us", simtime::to_us(dma_stats.p99))
        .set("copy_us", copy)
        .set("copy_p50_us", simtime::to_us(copy_stats.p50))
        .set("copy_p99_us", simtime::to_us(copy_stats.p99))
        .set("paper_cellpilot_us", row.cellpilot)
        .set("paper_dma_us", row.dma)
        .set("paper_copy_us", row.copy);
  }
  json.write_file("BENCH_table2.json");
  return 0;
}
