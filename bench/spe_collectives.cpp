// spe_collectives.cpp — measures the SPE-collectives extension (the
// paper's §VI future work, implemented here): broadcast to N SPE workers
// and gather from them, versus the N sequential writes/reads a paper-era
// application had to issue.
//
// Both paths move identical bytes through identical channels; the
// difference is purely the API (one call vs N) plus the library-overhead
// amortization of a single marshalling pass, so the series quantifies what
// the collective API is worth.
//
// Usage: spe_collectives [payload_doubles]
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "benchkit/args.hpp"
#include "core/cellpilot.hpp"
#include "pilot/context.hpp"

namespace {

constexpr int kMaxWorkers = 16;
int g_workers = 1;
int g_doubles = 64;
bool g_use_bundles = true;
PI_CHANNEL* g_down[kMaxWorkers];
PI_CHANNEL* g_up[kMaxWorkers];
std::atomic<simtime::SimTime> g_elapsed{0};

PI_SPE_PROGRAM_SIZED(coll_bench_worker, 2048) {
  const int id = arg1;
  std::vector<double> data(static_cast<std::size_t>(g_doubles));
  PI_Read(g_down[id], "%*lf", g_doubles, data.data());
  PI_Write(g_up[id], "%*lf", g_doubles, data.data());
  return 0;
}

int coll_main(int argc, char* argv[]) {
  PI_Configure(&argc, &argv);
  PI_PROCESS* spes[kMaxWorkers];
  for (int w = 0; w < g_workers; ++w) {
    spes[w] = PI_CreateSPE(coll_bench_worker, PI_MAIN, w);
    g_down[w] = PI_CreateChannel(PI_MAIN, spes[w]);
    g_up[w] = PI_CreateChannel(spes[w], PI_MAIN);
  }
  PI_BUNDLE* bcast = PI_CreateBundle(PI_BROADCAST, g_down, g_workers);
  PI_BUNDLE* gather = PI_CreateBundle(PI_GATHER, g_up, g_workers);

  PI_StartAll();
  for (int w = 0; w < g_workers; ++w) PI_RunSPE(spes[w], w, nullptr);

  simtime::VirtualClock& clock = pilot::context().mpi().clock();
  std::vector<double> payload(static_cast<std::size_t>(g_doubles), 3.14);
  std::vector<double> gathered(
      static_cast<std::size_t>(g_doubles * g_workers));

  const simtime::SimTime start = clock.now();
  if (g_use_bundles) {
    PI_Broadcast(bcast, "%*lf", g_doubles, payload.data());
    PI_Gather(gather, "%*lf", g_doubles, gathered.data());
  } else {
    for (int w = 0; w < g_workers; ++w) {
      PI_Write(g_down[w], "%*lf", g_doubles, payload.data());
    }
    for (int w = 0; w < g_workers; ++w) {
      PI_Read(g_up[w], "%*lf", g_doubles,
              gathered.data() + static_cast<std::size_t>(w) * g_doubles);
    }
  }
  g_elapsed.store(clock.now() - start);
  PI_StopMain(0);
  return 0;
}

double run(int workers, bool bundles) {
  g_workers = workers;
  g_use_bundles = bundles;
  g_elapsed.store(0);
  cluster::ClusterConfig config;
  config.nodes.push_back(cluster::NodeSpec::cell(1));
  cluster::Cluster machine(std::move(config));
  const auto result = cellpilot::run(machine, coll_main);
  if (result.aborted) {
    std::fprintf(stderr, "aborted: %s\n", result.abort_reason.c_str());
    std::exit(1);
  }
  return simtime::to_us(g_elapsed.load());
}

}  // namespace

int main(int argc, char** argv) {
  g_doubles =
      argc > 1 ? benchkit::positive_count(
                     argv[1], "usage: spe_collectives [payload_doubles]")
               : 64;
  std::printf(
      "SPE collectives (extension): broadcast+gather round trip over N SPE\n"
      "workers, %d doubles per worker\n\n",
      g_doubles);
  std::printf("%8s %18s %20s\n", "workers", "bundles (us)",
              "per-channel loops (us)");
  for (int workers : {1, 2, 4, 8, 16}) {
    const double with_bundles = run(workers, true);
    const double with_loops = run(workers, false);
    std::printf("%8d %18.1f %20.1f\n", workers, with_bundles, with_loops);
  }
  std::printf(
      "\nInterpretation: both paths serialize behind the node's single\n"
      "Co-Pilot, so the collective API buys convenience and one marshalling\n"
      "pass rather than asymptotic speedup — consistent with the paper's\n"
      "design, where collectives are an API nicety over the same relay.\n");
  return 0;
}
