// async_farm.cpp — a work-stealing SPE farm on the async tier: the master
// keeps one PI_ReadAsync in flight per worker and lets PI_WaitAny decide
// who gets the next strip, so fast workers automatically steal work that a
// round-robin dealer would have pinned on slow ones.
//
// The example showcases the two execution-time capabilities the async
// refactor added on top of the classic Pilot model:
//  * PI_CreateSPESlot + PI_SpawnSPE — the communication structure is still
//    declared up front, but *which program* occupies each SPE is decided at
//    run time (here: a mix of swift and steady workers);
//  * PI_WriteAsync / PI_ReadAsync / PI_WaitAny — the master never blocks on
//    a specific worker; it harvests whichever strip settles first.
//
// The job is the usual pi integration (f(x) = 4/(1+x^2) over [0,1]).  The
// run verifies its own result and the work-stealing effect, and writes
// per-strip latency percentiles to BENCH_async_farm.json (note on stderr).
//
// Usage: async_farm [strips]
#include <cmath>
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

constexpr int kWorkers = 4;
constexpr int kSwiftWorkers = 2;  // slots 0..1 spawn the fast program
constexpr int kSamplesPerStrip = 512;

int g_strips = 48;
PI_CHANNEL* g_task[kWorkers];
PI_CHANNEL* g_sum[kWorkers];
int g_done[kWorkers];
double g_total = 0.0;
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

// Two occupant programs for the same slot shape: the swift worker models a
// well-tuned SIMD kernel, the steady one a 3x slower scalar port.  The
// master code is identical either way — the imbalance is absorbed by
// completion order, not by scheduling logic.
PI_SPE_PROGRAM_SIZED(swift_worker, 2048) {
  const int id = arg1;
  for (;;) {
    double lo = 0, hi = 0;
    PI_Read(g_task[id], "%lf %lf", &lo, &hi);
    if (hi < lo) return 0;
    const double part = integrate(lo, hi, kSamplesPerStrip);
    cellsim::spu::self().clock().advance(simtime::us(150));
    PI_Write(g_sum[id], "%lf", part);
  }
}

PI_SPE_PROGRAM_SIZED(steady_worker, 2048) {
  const int id = arg1;
  for (;;) {
    double lo = 0, hi = 0;
    PI_Read(g_task[id], "%lf %lf", &lo, &hi);
    if (hi < lo) return 0;
    const double part = integrate(lo, hi, kSamplesPerStrip);
    cellsim::spu::self().clock().advance(simtime::us(450));
    PI_Write(g_sum[id], "%lf", part);
  }
}

int farm_main(int argc, char* argv[]) {
  PI_Configure(&argc, &argv);
  PI_PROCESS* slots[kWorkers];
  for (int w = 0; w < kWorkers; ++w) {
    slots[w] = PI_CreateSPESlot(PI_MAIN, w);
    g_task[w] = PI_CreateChannel(PI_MAIN, slots[w]);
    g_sum[w] = PI_CreateChannel(slots[w], PI_MAIN);
  }
  PI_StartAll();
  for (int w = 0; w < kWorkers; ++w) {
    PI_SpawnSPE(slots[w], w < kSwiftWorkers ? &swift_worker : &steady_worker,
                w, nullptr);
  }

  simtime::VirtualClock& clock = pilot::context().mpi().clock();
  const double width = 1.0 / g_strips;
  double part[kWorkers] = {};
  simtime::SimTime issued[kWorkers] = {};
  // Active set, compacted as workers run out of strips: handles[i] is the
  // in-flight result read of worker active[i].
  std::vector<PI_HANDLE> handles;
  std::vector<int> active;
  int dealt = 0;

  const auto deal = [&](int w) {
    issued[w] = clock.now();
    PI_HANDLE wh =
        PI_WriteAsync(g_task[w], "%lf %lf", dealt * width, (dealt + 1) * width);
    PI_Wait(wh);  // rank writes settle at submission; harvest releases wh
    ++dealt;
  };

  for (int w = 0; w < kWorkers && dealt < g_strips; ++w) {
    deal(w);
    handles.push_back(PI_ReadAsync(g_sum[w], "%lf", &part[w]));
    active.push_back(w);
  }

  while (!handles.empty()) {
    const int i = PI_WaitAny(handles.data(), static_cast<int>(handles.size()));
    const int w = active[static_cast<std::size_t>(i)];
    g_strip_samples.push_back(clock.now() - issued[w]);
    g_total += part[w];
    ++g_done[w];
    if (dealt < g_strips) {  // the finisher steals the next strip
      deal(w);
      handles[static_cast<std::size_t>(i)] =
          PI_ReadAsync(g_sum[w], "%lf", &part[w]);
    } else {  // no work left: retire this worker from the active set
      PI_Write(g_task[w], "%lf %lf", 1.0, 0.0);
      handles[static_cast<std::size_t>(i)] = handles.back();
      active[static_cast<std::size_t>(i)] = active.back();
      handles.pop_back();
      active.pop_back();
    }
  }
  PI_StopMain(0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  g_strips =
      argc > 1
          ? benchkit::positive_count(argv[1], "usage: async_farm [strips]")
          : 48;

  cluster::ClusterConfig config;
  config.nodes.push_back(cluster::NodeSpec::cell(1));
  cluster::Cluster machine(std::move(config));
  const cellpilot::RunResult result = cellpilot::run(machine, farm_main);
  if (result.aborted) {
    std::fprintf(stderr, "job aborted: %s\n", result.abort_reason.c_str());
    return 1;
  }

  const double error = std::fabs(g_total - M_PI);
  const benchkit::SampleStats strip =
      benchkit::summarize_samples(g_strip_samples);
  int swift_strips = 0;
  int steady_strips = 0;
  for (int w = 0; w < kWorkers; ++w) {
    (w < kSwiftWorkers ? swift_strips : steady_strips) += g_done[w];
  }

  std::printf("async_farm: pi ~= %.9f (error %.2e, %d strips)\n", g_total,
              error, g_strips);
  std::printf("  strips by worker:");
  for (int w = 0; w < kWorkers; ++w) {
    std::printf(" %d:%d(%s)", w, g_done[w],
                w < kSwiftWorkers ? "swift" : "steady");
  }
  std::printf("\n  strip latency: p50 %.1f us, p99 %.1f us\n",
              simtime::to_us(strip.p50), simtime::to_us(strip.p99));

  benchkit::BenchJson json("async_farm");
  json.meta("unit", "us")
      .meta("strips", static_cast<std::int64_t>(g_strips))
      .meta("workers", static_cast<std::int64_t>(kWorkers))
      .meta("pi_error", error)
      .meta("strip_p50_us", simtime::to_us(strip.p50))
      .meta("strip_p99_us", simtime::to_us(strip.p99));
  for (int w = 0; w < kWorkers; ++w) {
    json.add_row()
        .set("worker", static_cast<std::int64_t>(w))
        .set("program",
             std::string(w < kSwiftWorkers ? "swift_worker" : "steady_worker"))
        .set("strips", static_cast<std::int64_t>(g_done[w]));
  }
  json.write_file("BENCH_async_farm.json");

  // The example doubles as a smoke test: wrong math, a lost strip, or a
  // dealer that failed to exploit completion order all fail the run.
  if (error > 1e-4) {
    std::fprintf(stderr, "FAIL: pi estimate off by %.3e\n", error);
    return 1;
  }
  if (swift_strips + steady_strips != g_strips) {
    std::fprintf(stderr, "FAIL: %d strips dealt, %d harvested\n", g_strips,
                 swift_strips + steady_strips);
    return 1;
  }
  if (swift_strips <= steady_strips) {
    std::fprintf(stderr,
                 "FAIL: work stealing had no effect (swift %d <= steady %d)\n",
                 swift_strips, steady_strips);
    return 1;
  }
  return 0;
}
