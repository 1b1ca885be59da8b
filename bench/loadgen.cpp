// loadgen.cpp — latency-under-load sweeps over the simulated cluster.
//
// The open-loop engine lives in src/benchkit/loadgen.*; this binary is
// the operator's handle on it:
//
//   loadgen                         # default sweep, BENCH_loadgen.json
//   loadgen --seed 2 --quick        # short CI-sized sweep
//   loadgen --chaos copilot         # same mix through a Co-Pilot crash
//   loadgen --chaos spe             # ...through an SPE crash + respawn
//   loadgen --chaos blade           # ...through a blade kill + checkpoint
//                                   # restore (writes loadgen_blade.ckpt)
//   loadgen --chaos 'spe_crash_mid@*:op=9' --respawn 2   # raw cocktail
//   loadgen --points 20000,80000    # explicit offered loads (msg/s)
//   loadgen --out path.json         # where the JSON goes
//
// stdout carries the human table; the JSON (and the "wrote ..." note) go
// to the file / stderr so the table stays scrape-stable.  Everything is
// deterministic per seed — see docs/OBSERVABILITY.md, "Load & SLOs".
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "benchkit/args.hpp"
#include "benchkit/loadgen.hpp"

namespace {

using benchkit::loadgen::Config;
using benchkit::loadgen::kClassCount;

constexpr const char* kUsage =
    "usage: loadgen [--seed N] [--quick] [--chaos copilot|spe|blade|<spec>]\n"
    "               [--respawn N] [--ckpt FILE] [--ckpt-every N]\n"
    "               [--points a,b,...] [--horizon-ms X]\n"
    "               [--blades N] [--out FILE]";

int usage() {
  std::fprintf(stderr, "%s\n", kUsage);
  return 2;
}

bool parse_points(const char* arg, std::vector<double>* out) {
  out->clear();
  const char* p = arg;
  while (*p != '\0') {
    char* end = nullptr;
    const double v = std::strtod(p, &end);
    if (end == p || v <= 0) return false;
    out->push_back(v);
    p = end;
    if (*p == ',') ++p;
  }
  return !out->empty();
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  std::string out_path = "BENCH_loadgen.json";
  bool quick = false;
  bool points_set = false;
  bool horizon_set = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "loadgen: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      const char* v = need_value("--seed");
      if (v == nullptr) return usage();
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--chaos") {
      const char* v = need_value("--chaos");
      if (v == nullptr) return usage();
      // Two named cocktails cover the tracked recovery paths; anything
      // else is a raw core/faultplan spec.
      if (std::strcmp(v, "copilot") == 0) {
        cfg.chaos_spec = "copilot_crash@*:op=5";
      } else if (std::strcmp(v, "spe") == 0) {
        cfg.chaos_spec = "spe_crash_mid@*:op=25";
        if (cfg.respawn_budget == 0) cfg.respawn_budget = 8;
      } else if (std::strcmp(v, "blade") == 0) {
        // Kill blade 1 (burst sinks + remote pair reader) mid-sweep; the
        // coordinated checkpoint restores its SPE contexts, so the point
        // completes with a degraded window instead of a fault cascade.
        cfg.chaos_spec = "blade_kill@node1:op=40";
        if (cfg.ckpt_path.empty()) cfg.ckpt_path = "loadgen_blade.ckpt";
        if (cfg.ckpt_every == 0) cfg.ckpt_every = 16;
      } else {
        cfg.chaos_spec = v;
      }
    } else if (arg == "--respawn") {
      const char* v = need_value("--respawn");
      if (v == nullptr) return usage();
      cfg.respawn_budget = benchkit::positive_count(v, kUsage);
    } else if (arg == "--ckpt") {
      const char* v = need_value("--ckpt");
      if (v == nullptr) return usage();
      cfg.ckpt_path = v;
    } else if (arg == "--ckpt-every") {
      const char* v = need_value("--ckpt-every");
      if (v == nullptr) return usage();
      cfg.ckpt_every = benchkit::positive_count(v, kUsage);
    } else if (arg == "--points") {
      const char* v = need_value("--points");
      if (v == nullptr || !parse_points(v, &cfg.load_points_rps)) {
        std::fprintf(stderr, "loadgen: bad --points list\n");
        return usage();
      }
      points_set = true;
    } else if (arg == "--horizon-ms") {
      const char* v = need_value("--horizon-ms");
      if (v == nullptr) return usage();
      const double ms = std::strtod(v, nullptr);
      if (ms <= 0) {
        std::fprintf(stderr, "loadgen: bad --horizon-ms\n");
        return usage();
      }
      cfg.horizon = simtime::ms(ms);
      horizon_set = true;
    } else if (arg == "--blades") {
      const char* v = need_value("--blades");
      if (v == nullptr) return usage();
      cfg.blades = benchkit::positive_count(v, kUsage);
    } else if (arg == "--out") {
      const char* v = need_value("--out");
      if (v == nullptr) return usage();
      out_path = v;
    } else {
      std::fprintf(stderr, "loadgen: unknown flag %s\n", arg.c_str());
      return usage();
    }
  }

  if (quick) {
    // The CI shape: two points (one comfortable, one past the knee) over a
    // short horizon — enough signal for the gate, cheap enough per push.
    if (!points_set) cfg.load_points_rps = {8000, 20000};
    if (!horizon_set) cfg.horizon = simtime::ms(20);
  }
  cfg.finalize();

  std::printf("loadgen: seed=%llu blades=%d horizon=%.1fms chaos=%s\n",
              static_cast<unsigned long long>(cfg.seed), cfg.blades,
              simtime::to_ms(cfg.horizon),
              cfg.chaos_spec.empty() ? "-" : cfg.chaos_spec.c_str());
  std::printf("%10s  %-11s  %9s  %9s  %9s  %9s  %9s  %s\n", "load_rps",
              "class", "offered", "achieved", "p50_us", "p99_us",
              "degr_p99", "slo");

  const benchkit::loadgen::SweepResult sweep = benchkit::loadgen::run_sweep(cfg);

  for (const auto& point : sweep.points) {
    if (point.aborted) {
      std::printf("%10.0f  ABORTED: %s\n", point.load_rps,
                  point.abort_reason.c_str());
      continue;
    }
    for (int c = 0; c < kClassCount; ++c) {
      const auto& r = point.cls[c];
      std::printf("%10.0f  %-11s  %9.0f  %9.0f  %9.1f  %9.1f  %9.1f  %s\n",
                  point.load_rps, benchkit::loadgen::class_name(c),
                  r.offered_rps, r.achieved_rps, r.route.p50_us,
                  r.route.p99_us, r.degraded_p99_us,
                  r.slo_ok ? "ok" : "MISS");
    }
  }
  std::printf("capacity (max load meeting SLO at >=95%% goodput):\n");
  for (int c = 0; c < kClassCount; ++c) {
    std::printf("  %-11s  %10.0f msg/s\n", benchkit::loadgen::class_name(c),
                sweep.capacity_rps[c]);
  }

  const benchkit::BenchJson json =
      benchkit::loadgen::to_bench_json(cfg, sweep);
  if (!json.write_file(out_path)) return 1;

  bool any_abort = false;
  for (const auto& point : sweep.points) any_abort |= point.aborted;
  return any_abort ? 1 : 0;
}
