// jitter.cpp — per-repetition latency distribution of the PingPong.
//
// The paper reports averages over 1000 repetitions; this bench looks inside
// that average.  Virtual time exposes the *structural* variance: the first
// repetitions pay pipeline fill (SPE launch joins, Co-Pilot queue priming)
// while steady-state repetitions settle to a fixed cost.  Real-machine noise
// does not exist here — whatever spread remains is protocol structure.
//
// Usage: jitter [reps]
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "benchkit/args.hpp"
#include "benchkit/pingpong.hpp"
#include "cellsim/spu.hpp"
#include "core/cellpilot.hpp"
#include "pilot/context.hpp"

namespace {

int g_reps = 200;
std::size_t g_bytes = 1;
PI_CHANNEL* g_fwd = nullptr;
PI_CHANNEL* g_rev = nullptr;
PI_PROCESS* g_spe = nullptr;
std::vector<simtime::SimTime> g_samples;  // round trips

PI_SPE_PROGRAM(jitter_responder) {
  std::vector<std::byte> buf(g_bytes);
  for (int i = 0; i < g_reps; ++i) {
    PI_Read(g_fwd, "%*b", static_cast<int>(g_bytes), buf.data());
    PI_Write(g_rev, "%*b", static_cast<int>(g_bytes), buf.data());
  }
  return 0;
}

int jitter_main(int argc, char* argv[]) {
  PI_Configure(&argc, &argv);
  g_spe = PI_CreateSPE(jitter_responder, PI_MAIN, 0);
  g_fwd = PI_CreateChannel(PI_MAIN, g_spe);
  g_rev = PI_CreateChannel(g_spe, PI_MAIN);
  PI_StartAll();
  PI_RunSPE(g_spe, 0, nullptr);

  simtime::VirtualClock& clock = pilot::context().mpi().clock();
  std::vector<std::byte> buf(g_bytes);
  g_samples.clear();
  for (int i = 0; i < g_reps; ++i) {
    const simtime::SimTime start = clock.now();
    PI_Write(g_fwd, "%*b", static_cast<int>(g_bytes), buf.data());
    PI_Read(g_rev, "%*b", static_cast<int>(g_bytes), buf.data());
    g_samples.push_back(clock.now() - start);
  }
  PI_StopMain(0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  g_reps =
      argc > 1
          ? benchkit::positive_count(argv[1], "usage: jitter [reps]")
          : 200;

  std::printf(
      "Per-repetition one-way latency, type-2 channel, 1 B payload, %d "
      "reps\n\n",
      g_reps);

  cluster::ClusterConfig config;
  config.nodes.push_back(cluster::NodeSpec::cell(1));
  cluster::Cluster machine(std::move(config));
  const auto result = cellpilot::run(machine, jitter_main);
  if (result.aborted) {
    std::fprintf(stderr, "aborted: %s\n", result.abort_reason.c_str());
    return 1;
  }

  // One-way latency in µs: half a round trip.
  const auto one_way_us = [](simtime::SimTime rtt) {
    return simtime::to_us(rtt) / 2.0;
  };
  const std::size_t warmup = std::min<std::size_t>(5, g_samples.size());
  const std::vector<simtime::SimTime> steady(g_samples.begin() + warmup,
                                             g_samples.end());
  const double n = static_cast<double>(steady.size());
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -min;
  for (const simtime::SimTime s : steady) {
    sum += one_way_us(s);
    min = std::min(min, one_way_us(s));
    max = std::max(max, one_way_us(s));
  }
  const double mean = steady.empty() ? 0.0 : sum / n;
  double acc = 0.0;
  for (const simtime::SimTime s : steady) {
    acc += (one_way_us(s) - mean) * (one_way_us(s) - mean);
  }
  const double stddev = steady.size() < 2 ? 0.0 : std::sqrt(acc / (n - 1));
  const benchkit::SampleStats pct = benchkit::summarize_samples(steady);

  std::printf("first repetitions (pipeline fill):\n");
  for (std::size_t i = 0; i < warmup; ++i) {
    std::printf("  rep %zu: %.1f us\n", i, one_way_us(g_samples[i]));
  }
  std::printf(
      "\nsteady state over %zu reps:\n"
      "  mean %.2f us  stddev %.3f us  min %.1f  p50 %.1f  p99 %.1f  max "
      "%.1f\n",
      steady.size(), mean, stddev, min, one_way_us(pct.p50),
      one_way_us(pct.p99), max);
  std::printf(
      "\nInterpretation: after the pipeline fills, the virtual-time\n"
      "simulation is exactly periodic (stddev ~ 0): the paper's 1000-rep\n"
      "averaging smooths real-machine noise that the model does not have.\n");
  return 0;
}
