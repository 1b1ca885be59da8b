// sweep_sizes.cpp — extension of Figure 6: message-size sweep from 1 B to
// 64 KB for every channel type and method, locating the crossovers the
// paper's two-point measurements only hint at (e.g. where CellPilot's
// fixed overhead amortizes, and where per-byte costs overtake DMA setup).
//
// Usage: sweep_sizes [reps]
//
// Alongside the human table on stdout, the same numbers are written to
// BENCH_sweep_sizes.json (note on stderr) for plotting and regression
// tracking.
#include <cstdio>
#include <cstdlib>

#include "benchkit/args.hpp"
#include "benchkit/benchjson.hpp"
#include "benchkit/pingpong.hpp"

int main(int argc, char** argv) {
  const int reps =
      argc > 1
          ? benchkit::positive_count(argv[1], "usage: sweep_sizes [reps]")
          : 200;
  const simtime::CostModel cost = simtime::default_cost_model();
  const std::size_t sizes[] = {1,    16,    256,   1600,
                               4096, 16384, 65536};

  benchkit::BenchJson json("sweep_sizes");
  json.meta("unit", "us").meta("reps", static_cast<std::int64_t>(reps));

  std::printf("Message-size sweep: one-way latency in us (%d reps)\n", reps);
  for (int type = 1; type <= 5; ++type) {
    std::printf("\nchannel type %d\n", type);
    std::printf("%10s %14s %14s %14s %16s\n", "bytes", "CellPilot", "DMA",
                "Copy", "CP throughput");
    for (const std::size_t bytes : sizes) {
      benchkit::PingPongSpec spec;
      spec.type = static_cast<cellpilot::ChannelType>(type);
      spec.bytes = bytes;
      spec.reps = reps;
      const double cp =
          benchkit::pingpong_us(spec, benchkit::Method::kCellPilot, cost);
      const double dma =
          benchkit::pingpong_us(spec, benchkit::Method::kDma, cost);
      const double copy =
          benchkit::pingpong_us(spec, benchkit::Method::kCopy, cost);
      std::printf("%10zu %14.1f %14.1f %14.1f %13.1f MB/s\n", bytes, cp, dma,
                  copy, bytes / cp);
      json.add_row()
          .set("type", static_cast<std::int64_t>(type))
          .set("bytes", static_cast<std::int64_t>(bytes))
          .set("cellpilot_us", cp)
          .set("dma_us", dma)
          .set("copy_us", copy)
          .set("cp_throughput_mbps", bytes / cp);
    }
  }
  std::printf(
      "\nInterpretation: CellPilot's overhead is a fixed per-transfer tax;\n"
      "its relative cost falls with message size until per-byte terms\n"
      "dominate.  DMA's flat profile up to 16 KB (one MFC command) makes\n"
      "it the asymptotic winner on-chip; off-node, the network dwarfs all\n"
      "methods' differences at large sizes.\n");
  json.write_file("BENCH_sweep_sizes.json");
  return 0;
}
