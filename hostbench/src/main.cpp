// hostbench — the host-time benchmark of the CellPilot simulator.
//
//   hostbench --workload pingpong|loadmix --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// One workload per process.  A run repeats the workload's fixed unit of
// work as many times as fit in --seconds on the reference host (a fixed
// count, so every commit does the same work), timing set-ups of the same
// topology in between, and checks every unit's virtual-time outputs
// against the oracle.  --trace 0 reports the end-to-end metrics; --trace 1
// makes the traced run: it alternates traced and untraced units, records host
// spans around every call into the program, adds direct per-module probes,
// and reports the per-layer metrics.  The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.  See README.md.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "layers.hpp"
#include "loadmix.hpp"
#include "pingpong.hpp"
#include "spans.hpp"

extern char** environ;

namespace hostbench {

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double nearest_rank(std::vector<double> values, int pct) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  std::size_t rank = (n * static_cast<std::size_t>(pct) + 99) / 100;
  rank = std::clamp<std::size_t>(rank, 1, n);
  return values[rank - 1];
}

namespace {

/// Round trips per route run.  A route pass (one pingpong unit, or one pass
/// of loadmix's route probe) makes one run of each route, except type 1,
/// which it runs `kType1Runs` times: a type-1 run's round trip settles near
/// 10 us or, on some runs, near 6 us, so its median needs more runs than
/// the other routes', and they cost little (1000 round trips in ~15 ms).
constexpr int kUnitReps = 1000;
constexpr int kType1Runs = 4;
/// loadmix's route probe: one pass per this many --seconds, at least one.
constexpr double kProbeSecondsPerPass = 10;
/// Untimed set-ups before the first timed unit, and timed set-ups after
/// each unit.  A fresh process's first set-ups run up to ten times slower
/// (first-touch of cluster memory, thread stacks), for as long as the
/// whole first unit; an untimed unit and these set-ups absorb that.
constexpr int kSetupWarmups = 5;
constexpr int kSetupsPerUnit = 3;
/// Units per run, at least (twice that in the traced run, which alternates
/// untraced and traced units).
constexpr int kMinUnits = 2;

int usage(const char* why) {
  std::fprintf(stderr,
               "hostbench: %s\n"
               "usage: hostbench --workload pingpong|loadmix\n"
               "                 --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n"
               "  N: non-negative integer; S: seconds > 0 (at most 600)\n",
               why);
  return 2;
}

bool parse_seed(const char* s, std::uint64_t* out) {
  if (s == nullptr || *s < '0' || *s > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

bool parse_seconds(const char* s, double* out) {
  if (s == nullptr) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || errno != 0 || !std::isfinite(v) ||
      v <= 0 || v > 600) {
    return false;
  }
  *out = v;
  return true;
}

/// Parses argv; returns 0 to run, otherwise the exit code.
int parse_args(int argc, char** argv, RunArgs* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--skew-oracle") {
      args->skew_oracle = true;
      continue;
    }
    if (flag == "--help" || flag == "-h") {
      usage("host-time benchmark of the CellPilot simulator");
      return 2;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
      if (args->workload != "pingpong" && args->workload != "loadmix") {
        return usage(("unknown workload '" + args->workload + "'").c_str());
      }
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_seed(value, &args->seed)) {
        return usage(("bad --seed '" + std::string(value) + "'").c_str());
      }
    } else if (flag == "--seconds") {
      if (!parse_seconds(value, &args->seconds)) {
        return usage(("bad --seconds '" + std::string(value) + "'").c_str());
      }
    } else if (flag == "--trace") {
      const std::string v = value;
      if (v != "0" && v != "1") {
        return usage(("bad --trace '" + v + "' (0 or 1)").c_str());
      }
      args->trace = v == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  return 0;
}

/// The simulator arms trace/metrics/fault/checkpoint sessions from
/// CELLPILOT_* variables; a benchmark run must not inherit any of them.
void scrub_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("CELLPILOT_", 0) == 0) {
      names.push_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const std::string& name : names) {
    std::fprintf(stderr, "hostbench: ignoring %s\n", name.c_str());
    unsetenv(name.c_str());
  }
}

void print_context(const RunArgs& args) {
  std::printf("hostbench: workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              args.workload.c_str(), args.seed, args.seconds,
              args.trace ? 1 : 0);
  std::printf("context: nproc=%ld build=%s compiler=\"%s\"\n",
              sysconf(_SC_NPROCESSORS_ONLN), HOSTBENCH_BUILD_TYPE,
#if defined(__clang__)
              "clang " __clang_version__
#elif defined(__GNUC__)
              "gcc " __VERSION__
#else
              "unknown"
#endif
  );
}

/// Per-unit host samples of a run.
struct Units {
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  std::vector<double> traced_wall_s;  ///< traced run: traced units only
  std::vector<double> messages;       ///< every unit
};

void add_end_to_end(Report& report, const std::vector<double>& setup_s,
                    const Units& units, double rss_mb, const Tally& tally) {
  report.add("setup_s", median(setup_s), "s", setup_s.size());
  report.add("wall_s", median(units.wall_s), "s", units.wall_s.size());
  report.add("cpu_s", median(units.cpu_s), "s", units.cpu_s.size());
  report.add("peak_rss_mb", rss_mb, "MiB");
  // Delivered messages per host second of a unit minus its set-up.
  const double busy_s = median(units.wall_s) - median(setup_s);
  report.add("msgs_per_s", busy_s > 0 ? median(units.messages) / busy_s : 0,
             "1/s", units.wall_s.size());
  const double ok = tally.attempted == 0
                        ? 0
                        : static_cast<double>(tally.attempted - tally.failed) /
                              static_cast<double>(tally.attempted);
  report.add("ok_ratio", ok, "ratio", tally.attempted);
}

/// The round-trip metrics.  The tail is reported at p95: on a shared
/// 4-core host the per-run p99 of routes 2-5 swung by up to 2x between
/// runs (host CPU steal reaches the polling Co-Pilots first), too wide for
/// any regression bound; p95 held within a few percent.  p99 is still
/// printed, as information.
void add_rtt(Report& report, const RouteSamples& s) {
  for (int t = 1; t <= 5; ++t) {
    report.add("rtt_us_p50.type" + std::to_string(t),
               median(s.rtt_p50_ns[t]) / 1e3, "us", s.round_trips[t]);
  }
  for (int t = 1; t <= 5; ++t) {
    report.add("rtt_us_p95.type" + std::to_string(t),
               median(s.rtt_p95_ns[t]) / 1e3, "us", s.round_trips[t]);
  }
  for (int t = 1; t <= 5; ++t) {
    std::printf("info: rtt_us_p99.type%d %.3f us (not a metric)\n", t,
                median(s.rtt_p99_ns[t]) / 1e3);
  }
}

/// Median duration (or self time) of the spans called `name`, in ms.
void add_span_median(Report& report, const std::string& metric,
                     const std::map<std::string, SpanTotals>& totals,
                     const char* name, bool self = false) {
  const auto it = totals.find(name);
  if (it == totals.end()) {
    report.add(metric, 0, "ms", 0);
    return;
  }
  const auto& samples =
      self ? it->second.self_samples_ns : it->second.durations_ns;
  report.add(metric, median(samples) / 1e6, "ms", samples.size());
}

/// Per-layer metrics of the round-trip app: call spans, Co-Pilot hops and
/// the set-up spans (from traced route runs).
void add_route_layers(Report& report, const RouteSamples& s,
                      const std::map<std::string, SpanTotals>& totals) {
  for (int t = 1; t <= 5; ++t) {
    report.add("pilot.write_us.type" + std::to_string(t),
               median(s.write_ns[t]) / 1e3, "us", s.write_ns[t].size());
  }
  for (int t = 1; t <= 5; ++t) {
    report.add("pilot.read_us.type" + std::to_string(t),
               median(s.read_ns[t]) / 1e3, "us", s.read_ns[t].size());
  }
  for (int t = 1; t <= 5; ++t) {
    report.add("core.copilot_hops.type" + std::to_string(t),
               median(s.hops_per_rtt[t]), "count", s.hops_per_rtt[t].size());
  }
  add_span_median(report, "cluster.build_ms", totals, "cluster.build");
  add_span_median(report, "core.start_all_ms", totals, "core.start_all");
  add_span_median(report, "core.run_spe_ms", totals, "core.run_spe");
  add_span_median(report, "core.stop_ms", totals, "core.stop");
  add_span_median(report, "core.run_self_ms", totals, "core.run", true);
}

/// Delivered application messages of one unit: the numerator of
/// msgs_per_s.
void add_messages(Report& report, double messages) {
  report.add("core.messages", messages, "count");
}

void add_overhead(Report& report, const Units& units) {
  const double untraced = median(units.wall_s);
  const double traced = median(units.traced_wall_s);
  report.add("trace.wall_s.untraced", untraced, "s", units.wall_s.size());
  report.add("trace.wall_s.traced", traced, "s", units.traced_wall_s.size());
  report.add("trace.overhead_ratio", untraced > 0 ? traced / untraced : 0,
             "ratio");
}

/// Runs the five routes in a seed-determined order, `reps` round trips per
/// run: type 1 `kType1Runs` times, the others once (a set-up, `reps` == 0,
/// runs each route once).  Returns the pass's host wall seconds;
/// accumulates delivered messages when asked.
double route_pass(int reps, std::uint64_t& state, const RunArgs& args,
                  SpanLog& spans, RouteSamples* samples, Tally& tally,
                  double* messages = nullptr) {
  double wall = 0;
  for (int type : route_order(state)) {
    const int runs = type == 1 && reps > 0 ? kType1Runs : 1;
    for (int k = 0; k < runs; ++k) {
      const RouteRun run = run_route(type, reps, mix64(state), spans, -1);
      check_route(run, args.skew_oracle, tally);
      if (reps == 0) tally.check(!run.aborted, "set-up run aborted");
      if (samples != nullptr) samples->add(run);
      if (messages != nullptr) *messages += static_cast<double>(run.messages);
      wall += run.wall_s;
    }
  }
  return wall;
}

/// One unit of a workload's fixed work, as measured on the host.
struct UnitResult {
  double wall_s = 0;
  double cpu_s = 0;
  double messages = 0;  ///< delivered application messages
};

/// What the shared run loop needs from a workload.
struct Workload {
  /// Host seconds one unit (with its set-ups) took on the
  /// reference host.  It turns --seconds into a unit count, so a run does
  /// a fixed amount of work: a faster program finishes sooner instead of
  /// doing more, and state that grows with work done grows the same on
  /// every commit.
  double nominal_unit_s = 1;
  /// One set-up: same topology and arming, no application message.
  std::function<double()> setup;
  /// One unit, recording spans into the given log; `measured` is false for
  /// the warm-up unit, whose samples are dropped.
  std::function<UnitResult(SpanLog&, bool measured)> unit;
};

/// The run loop: one untimed unit and a few untimed set-ups as warm-up
/// (its outputs are still checked), then the units --seconds asks for, each
/// followed by timed set-ups (so setup_s samples the same host conditions
/// as the units).  The traced run alternates untraced and traced units.
Units run_units(const RunArgs& args, const Workload& w, SpanLog& traced,
                std::vector<double>* setup_s) {
  SpanLog untraced(false);
  w.unit(untraced, false);
  for (int k = 0; k < kSetupWarmups; ++k) w.setup();
  Units units;
  const int count =
      std::max(args.trace ? 2 * kMinUnits : kMinUnits,
               static_cast<int>(std::lround(args.seconds / w.nominal_unit_s)));
  for (int u = 0; u < count; ++u) {
    const bool trace_unit = args.trace && u % 2 == 1;
    const UnitResult r = w.unit(trace_unit ? traced : untraced, true);
    units.messages.push_back(r.messages);
    if (trace_unit) {
      units.traced_wall_s.push_back(r.wall_s);
    } else {
      units.wall_s.push_back(r.wall_s);
      units.cpu_s.push_back(r.cpu_s);
    }
    for (int k = 0; k < kSetupsPerUnit; ++k) setup_s->push_back(w.setup());
  }
  return units;
}

void run_pingpong(const RunArgs& args, Report& report, Tally& tally,
                  SpanLog& traced) {
  SpanLog untraced(false);
  std::uint64_t state = args.seed;
  RouteSamples samples;         // untraced units (end-to-end)
  RouteSamples traced_samples;  // traced units (per-layer)
  Workload w;
  w.nominal_unit_s = 3.0;
  w.setup = [&] {
    return route_pass(0, state, args, untraced, nullptr, tally);
  };
  w.unit = [&](SpanLog& spans, bool measured) {
    RouteSamples* into = spans.enabled() ? &traced_samples : &samples;
    UnitResult r;
    const double cpu0 = cpu_seconds();
    r.wall_s = route_pass(kUnitReps, state, args, spans,
                          measured ? into : nullptr, tally, &r.messages);
    r.cpu_s = cpu_seconds() - cpu0;
    return r;
  };
  std::vector<double> setup_s;
  const Units units = run_units(args, w, traced, &setup_s);

  if (!args.trace) {
    add_end_to_end(report, setup_s, units, peak_rss_mb(), tally);
    add_rtt(report, samples);
    return;
  }
  add_route_layers(report, traced_samples, traced.totals());
  add_messages(report, median(units.messages));
  add_overhead(report, units);
}

void run_loadmix(const RunArgs& args, Report& report, Tally& tally,
                 SpanLog& traced) {
  const std::optional<std::uint64_t> pinned =
      pinned_digest(args.seed, args.skew_oracle);
  std::optional<std::uint64_t> reference = pinned;
  const char* reference_kind = pinned ? "pinned" : "first point of this run";

  double traced_messages = 0;  ///< the last traced point's
  Workload w;
  // A point took 0.22 s and its three set-ups 0.025 s; the rest of the
  // run's time goes to the route probe.
  w.nominal_unit_s = 0.35;
  w.setup = [&] {
    const PointRun run = run_one_point(args.seed, true);
    tally.check(!run.result.aborted && run.result.snapshot_rc == 0,
                "set-up point aborted: " + run.result.abort_reason);
    return run.wall_s;
  };
  w.unit = [&](SpanLog& spans, bool /*measured*/) {
    const std::uint64_t req = spans.next_request();
    const std::int64_t t0 = now_ns();
    const PointRun run = run_one_point(args.seed, false);
    spans.add("loadgen.run_point", t0, now_ns(), -1, req);
    if (!reference) reference = run.digest;
    check_point(run, *reference, reference_kind, tally);
    UnitResult r;
    r.wall_s = run.wall_s;
    r.cpu_s = run.cpu_s;
    r.messages = static_cast<double>(run.messages);
    if (spans.enabled()) traced_messages = r.messages;
    return r;
  };
  std::vector<double> setup_s;
  const Units units = run_units(args, w, traced, &setup_s);
  // Read before the route probe, so the figure is loadmix's own.
  const double rss_mb = peak_rss_mb();

  // The route probe: every workload prints every end-to-end metric, so
  // loadmix reports the rtt metrics too, from pingpong route passes run
  // after its units.  They copy pingpong's figures and move with them.
  RouteSamples probe;
  std::uint64_t probe_state = args.seed ^ 0x70b3ull;
  const int passes = std::max(
      1, static_cast<int>(std::lround(args.seconds / kProbeSecondsPerPass)));
  for (int p = 0; p < passes; ++p) {
    route_pass(kUnitReps, probe_state, args, traced, &probe, tally);
  }

  if (!args.trace) {
    add_end_to_end(report, setup_s, units, rss_mb, tally);
    add_rtt(report, probe);
    return;
  }
  add_route_layers(report, probe, traced.totals());
  add_messages(report, traced_messages);
  add_overhead(report, units);
}

void print_span_table(const SpanLog& spans) {
  const auto totals = spans.totals();
  std::printf("spans: %-20s %8s %12s %12s %12s\n", "name", "count",
              "total_ms", "self_ms", "p50_us");
  for (const auto& [name, t] : totals) {
    std::printf("spans: %-20s %8" PRIu64 " %12.3f %12.3f %12.3f\n",
                name.c_str(), t.count, t.total_ns / 1e6, t.self_ns / 1e6,
                median(t.durations_ns) / 1e3);
  }
}

void print_result(const Report& report, const Tally& tally) {
  for (const Metric& m : report.metrics()) {
    std::printf("metric: %-28s %16.6f %-6s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  for (const std::string& p : tally.problems) {
    std::printf("MISMATCH: %s\n", p.c_str());
  }
  std::printf("oracle: %" PRIu64 " ops attempted, %" PRIu64 " failed\n",
              tally.attempted, tally.failed);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              tally.failed == 0 ? "true" : "false", tally.attempted,
              tally.failed);
  const auto& ms = report.metrics();
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                ms[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int run(int argc, char** argv) {
  RunArgs args;
  if (const int rc = parse_args(argc, argv, &args); rc != 0) return rc;
  scrub_environment();
  // Pin glibc's mmap threshold at its default.  Left dynamic, it rises
  // after the first cluster teardown, and whether later clusters' local
  // stores (256 KiB each) reuse warm heap pages or fault in fresh ones
  // then depends on heap layout: set-ups ran 3 ms in most processes and
  // 12 ms in some, for a whole run.  Pinned, every cluster build faults its
  // local stores in, as a fresh process's first build does.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "hostbench: cannot create %s: %s\n",
                 args.out_dir.c_str(), ec.message().c_str());
    return 1;
  }
  print_context(args);
  std::fflush(stdout);

  Report report;
  Tally tally;
  SpanLog traced(args.trace);
  if (args.workload == "pingpong") {
    run_pingpong(args, report, tally, traced);
  } else {
    run_loadmix(args, report, tally, traced);
  }
  if (args.trace) {
    measure_layers(report);
    measure_checkpoint(report, tally, traced);
    print_span_table(traced);
    const std::string path = args.out_dir + "/spans-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".json";
    if (traced.write_json(path)) {
      std::printf("spans: %zu written to %s\n", traced.size(), path.c_str());
    } else {
      std::fprintf(stderr, "hostbench: cannot write %s\n", path.c_str());
    }
  }
  print_result(report, tally);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace hostbench

int main(int argc, char** argv) { return hostbench::run(argc, argv); }
