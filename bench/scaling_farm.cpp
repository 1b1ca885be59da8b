// scaling_farm.cpp — case-study scaling: how a data-parallel CellPilot
// application speeds up as SPE workers are added (the deployment question
// behind the paper's motivation that the Cell cluster sat underutilized).
//
// Workload: the pipeline_farm integration kernel (fixed total work) split
// over 1..16 SPE workers on one blade; reported is the master's virtual
// makespan and the speedup/efficiency curve.
//
// Usage: scaling_farm [strips]
//
// Alongside the human table on stdout, the same numbers are written to
// BENCH_scaling_farm.json (note on stderr) for plotting and regression
// tracking.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "benchkit/args.hpp"
#include "benchkit/benchjson.hpp"
#include "benchkit/pingpong.hpp"
#include "cellsim/spu.hpp"
#include "core/cellpilot.hpp"
#include "pilot/context.hpp"

namespace {

constexpr int kMaxWorkers = 16;
int g_strips = 64;
int g_workers = 1;
PI_CHANNEL* g_task[kMaxWorkers];
PI_CHANNEL* g_sum[kMaxWorkers];
std::atomic<simtime::SimTime> g_elapsed{0};
// Per-strip round-trip latency (deal -> sum read-back), sampled with clock
// reads only so the makespan column is bit-identical with or without it.
std::vector<simtime::SimTime> g_strip_samples;

double integrate(double lo, double hi, int samples) {
  const double dx = (hi - lo) / samples;
  double sum = 0.0;
  for (int i = 0; i < samples; ++i) {
    const double x = lo + (i + 0.5) * dx;
    sum += 4.0 / (1.0 + x * x);
  }
  return sum * dx;
}

PI_SPE_PROGRAM_SIZED(farm_worker, 2048) {
  const int id = arg1;
  for (;;) {
    double lo = 0, hi = 0;
    PI_Read(g_task[id], "%lf %lf", &lo, &hi);
    if (hi < lo) return 0;
    const double part = integrate(lo, hi, 512);
    // The SPE's compute time in virtual time (~512 samples of SIMD math).
    cellsim::spu::self().clock().advance(simtime::us(400));
    PI_Write(g_sum[id], "%lf", part);
  }
}

int farm_main(int argc, char* argv[]) {
  PI_Configure(&argc, &argv);
  PI_PROCESS* spes[kMaxWorkers];
  for (int w = 0; w < g_workers; ++w) {
    spes[w] = PI_CreateSPE(farm_worker, PI_MAIN, w);
    g_task[w] = PI_CreateChannel(PI_MAIN, spes[w]);
    g_sum[w] = PI_CreateChannel(spes[w], PI_MAIN);
  }
  PI_StartAll();
  for (int w = 0; w < g_workers; ++w) PI_RunSPE(spes[w], w, nullptr);

  simtime::VirtualClock& clock = pilot::context().mpi().clock();
  const simtime::SimTime start = clock.now();

  const double width = 1.0 / g_strips;
  double total = 0;
  int dealt = 0;
  std::vector<int> outstanding(static_cast<std::size_t>(g_workers), 0);
  std::vector<simtime::SimTime> issued(static_cast<std::size_t>(g_workers), 0);
  int busy = 0;
  // Keep one strip in flight per worker.
  while (dealt < g_strips || busy > 0) {
    for (int w = 0; w < g_workers; ++w) {
      auto& flag = outstanding[static_cast<std::size_t>(w)];
      if (flag == 0 && dealt < g_strips) {
        issued[static_cast<std::size_t>(w)] = clock.now();
        PI_Write(g_task[w], "%lf %lf", dealt * width, (dealt + 1) * width);
        ++dealt;
        flag = 1;
        ++busy;
      } else if (flag == 1) {
        double part = 0;
        PI_Read(g_sum[w], "%lf", &part);
        g_strip_samples.push_back(clock.now() -
                                  issued[static_cast<std::size_t>(w)]);
        total += part;
        flag = 0;
        --busy;
      }
    }
  }
  g_elapsed.store(clock.now() - start);

  for (int w = 0; w < g_workers; ++w) {
    PI_Write(g_task[w], "%lf %lf", 1.0, 0.0);
  }
  PI_StopMain(0);
  (void)total;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  g_strips =
      argc > 1
          ? benchkit::positive_count(argv[1], "usage: scaling_farm [strips]")
          : 64;

  std::printf("Case-study scaling: pi integration farm, %d strips\n\n",
              g_strips);
  std::printf("%8s %14s %10s %12s %10s %10s\n", "workers", "makespan (us)",
              "speedup", "efficiency", "strip p50", "strip p99");
  benchkit::BenchJson json("scaling_farm");
  json.meta("unit", "us").meta("strips", static_cast<std::int64_t>(g_strips));
  double base = 0;
  for (int workers : {1, 2, 4, 8, 16}) {
    g_workers = workers;
    g_elapsed.store(0);
    g_strip_samples.clear();
    cluster::ClusterConfig config;
    config.nodes.push_back(cluster::NodeSpec::cell(1));
    cluster::Cluster machine(std::move(config));
    const auto result = cellpilot::run(machine, farm_main);
    if (result.aborted) {
      std::fprintf(stderr, "aborted: %s\n", result.abort_reason.c_str());
      return 1;
    }
    const double us = simtime::to_us(g_elapsed.load());
    const benchkit::SampleStats strip =
        benchkit::summarize_samples(g_strip_samples);
    if (base == 0) base = us;
    std::printf("%8d %14.1f %9.2fx %11.1f%% %10.1f %10.1f\n", workers, us,
                base / us, 100.0 * base / us / workers,
                simtime::to_us(strip.p50), simtime::to_us(strip.p99));
    json.add_row()
        .set("workers", static_cast<std::int64_t>(workers))
        .set("makespan_us", us)
        .set("speedup", base / us)
        .set("efficiency_pct", 100.0 * base / us / workers)
        .set("strip_p50_us", simtime::to_us(strip.p50))
        .set("strip_p99_us", simtime::to_us(strip.p99));
  }
  std::printf(
      "\nInterpretation: the single Co-Pilot serves every SPE request, so\n"
      "the farm scales until the Co-Pilot saturates — the contention the\n"
      "paper's future-work optimization targets.\n");
  json.write_file("BENCH_scaling_farm.json");
  return 0;
}
