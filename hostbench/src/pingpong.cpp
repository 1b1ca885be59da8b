#include "pingpong.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <optional>
#include <string>

#include "cellsim/spu.hpp"
#include "core/cellpilot.hpp"
#include "core/protocol.hpp"
#include "pilot/context.hpp"

namespace hostbench {

namespace {

using cellpilot::ChannelType;
using simtime::SimTime;

const char* const kRouteSpan[6] = {"", "route.type1", "route.type2",
                                   "route.type3", "route.type4",
                                   "route.type5"};

/// Per-run context, threaded to rank bodies through their void* argument
/// and to SPE bodies through PI_RunSPE's pointer, as benchkit's harness
/// does.  The initiator thread alone writes `out`'s samples; the caller
/// reads them after cellpilot::run has joined every thread.
struct Harness {
  int type = 1;
  int reps = 0;
  std::uint64_t salt = 0;
  PI_CHANNEL* fwd = nullptr;
  PI_CHANNEL* rev = nullptr;
  PI_PROCESS* spe_initiator = nullptr;
  PI_PROCESS* spe_responder = nullptr;
  SpanLog* spans = nullptr;
  int run_span = -1;
  std::uint64_t request = 0;
  RouteRun* out = nullptr;
  std::atomic<SimTime> elapsed{0};
  std::int64_t stop_begin_ns = 0;  ///< PI_MAIN enters PI_StopMain
  std::int64_t loop_end_ns = 0;    ///< the initiator's last read returned
};

std::byte payload(const Harness& h, int rep) {
  const std::uint64_t v = h.salt + 0x9dull * static_cast<unsigned>(rep);
  return static_cast<std::byte>(v & 0xffu);
}

void timed_run_spe(Harness& h, PI_PROCESS* spe) {
  const std::int64_t t0 = now_ns();
  PI_RunSPE(spe, 0, &h);
  h.spans->add("core.run_spe", t0, now_ns(), h.run_span, h.request);
}

void responder_loop(Harness& h) {
  std::byte buf[kPingPongBytes] = {};
  for (int i = 0; i < h.reps; ++i) {
    PI_Read(h.fwd, "%*b", kPingPongBytes, buf);
    PI_Write(h.rev, "%*b", kPingPongBytes, buf);
  }
}

/// The timed client: every rep is one write and one read, each bracketed
/// by host clock reads.  Virtual time is read only at the ends.
void initiator_loop(Harness& h, simtime::VirtualClock& clock) {
  RouteRun& out = *h.out;
  const auto n = static_cast<std::size_t>(h.reps);
  out.rtt_ns.reserve(n);
  out.write_ns.reserve(n);
  out.read_ns.reserve(n);
  std::byte sent[kPingPongBytes] = {};
  std::byte got[kPingPongBytes] = {};
  const SimTime vstart = clock.now();
  for (int i = 0; i < h.reps; ++i) {
    sent[0] = payload(h, i);
    got[0] = ~sent[0];
    const std::int64_t t0 = now_ns();
    PI_Write(h.fwd, "%*b", kPingPongBytes, sent);
    const std::int64_t t1 = now_ns();
    PI_Read(h.rev, "%*b", kPingPongBytes, got);
    const std::int64_t t2 = now_ns();
    out.rtt_ns.push_back(static_cast<double>(t2 - t0));
    out.write_ns.push_back(static_cast<double>(t1 - t0));
    out.read_ns.push_back(static_cast<double>(t2 - t1));
    if (got[0] == sent[0]) ++out.good_reps;
    if (h.spans->enabled()) {
      const std::uint64_t req = h.spans->next_request();
      const int rtt = h.spans->add("pingpong.rtt", t0, t2, h.run_span, req);
      h.spans->add("pilot.write", t0, t1, rtt, req);
      h.spans->add("pilot.read", t1, t2, rtt, req);
    }
  }
  h.loop_end_ns = now_ns();
  h.elapsed.store(clock.now() - vstart);
}

PI_SPE_PROGRAM_SIZED(hb_spe_responder, 2048) {
  responder_loop(*static_cast<Harness*>(arg2));
  return 0;
}

PI_SPE_PROGRAM_SIZED(hb_spe_initiator, 2048) {
  initiator_loop(*static_cast<Harness*>(arg2),
                 cellsim::spu::self().clock());
  return 0;
}

int hb_rank_responder(int /*index*/, void* arg) {
  responder_loop(*static_cast<Harness*>(arg));
  return 0;
}

int hb_rank_parent(int /*index*/, void* arg) {
  Harness& h = *static_cast<Harness*>(arg);
  timed_run_spe(h, h.spe_responder);
  return 0;
}

/// The app's main, on every rank (SPMD).  Placement per route is
/// benchkit::pingpong's; only PI_MAIN returns from PI_StartAll.
int hb_main(Harness& h, int argc, char** argv) {
  const std::int64_t configure0 = now_ns();
  PI_Configure(&argc, &argv);
  PI_PROCESS* p1 = nullptr;
  switch (static_cast<ChannelType>(h.type)) {
    case ChannelType::kType1:
      p1 = PI_CreateProcess(hb_rank_responder, 0, &h);
      h.fwd = PI_CreateChannel(PI_MAIN, p1);
      h.rev = PI_CreateChannel(p1, PI_MAIN);
      break;
    case ChannelType::kType2:
      h.spe_responder = PI_CreateSPE(hb_spe_responder, PI_MAIN, 0);
      h.fwd = PI_CreateChannel(PI_MAIN, h.spe_responder);
      h.rev = PI_CreateChannel(h.spe_responder, PI_MAIN);
      break;
    case ChannelType::kType3:
      p1 = PI_CreateProcess(hb_rank_parent, 0, &h);
      h.spe_responder = PI_CreateSPE(hb_spe_responder, p1, 0);
      h.fwd = PI_CreateChannel(PI_MAIN, h.spe_responder);
      h.rev = PI_CreateChannel(h.spe_responder, PI_MAIN);
      break;
    case ChannelType::kType4:
      h.spe_initiator = PI_CreateSPE(hb_spe_initiator, PI_MAIN, 0);
      h.spe_responder = PI_CreateSPE(hb_spe_responder, PI_MAIN, 1);
      h.fwd = PI_CreateChannel(h.spe_initiator, h.spe_responder);
      h.rev = PI_CreateChannel(h.spe_responder, h.spe_initiator);
      break;
    case ChannelType::kType5:
      p1 = PI_CreateProcess(hb_rank_parent, 0, &h);
      h.spe_initiator = PI_CreateSPE(hb_spe_initiator, PI_MAIN, 0);
      h.spe_responder = PI_CreateSPE(hb_spe_responder, p1, 0);
      h.fwd = PI_CreateChannel(h.spe_initiator, h.spe_responder);
      h.rev = PI_CreateChannel(h.spe_responder, h.spe_initiator);
      break;
  }
  PI_StartAll();
  h.spans->add("core.start_all", configure0, now_ns(), h.run_span, h.request);

  switch (static_cast<ChannelType>(h.type)) {
    case ChannelType::kType1:
    case ChannelType::kType3:
      initiator_loop(h, pilot::context().mpi().clock());
      break;
    case ChannelType::kType2:
      timed_run_spe(h, h.spe_responder);
      initiator_loop(h, pilot::context().mpi().clock());
      break;
    case ChannelType::kType4:
      timed_run_spe(h, h.spe_initiator);
      timed_run_spe(h, h.spe_responder);
      break;
    case ChannelType::kType5:
      timed_run_spe(h, h.spe_initiator);
      break;
  }
  h.stop_begin_ns = now_ns();
  PI_StopMain(0);
  // Harvest after quiescence (the PI_GetChannelStats contract).
  PI_CHANNEL_STATS fwd = {};
  PI_CHANNEL_STATS rev = {};
  if (PI_GetChannelStats(h.fwd, &fwd) == 0 &&
      PI_GetChannelStats(h.rev, &rev) == 0) {
    h.out->messages = fwd.messages + rev.messages;
    h.out->copilot_hops = fwd.copilot_hops + rev.copilot_hops;
  }
  return 0;
}

cluster::ClusterConfig cluster_for(int type) {
  cluster::ClusterConfig config;
  config.nodes.push_back(cluster::NodeSpec::cell(1));
  if (type == 1 || type == 3 || type == 5) {
    config.nodes.push_back(cluster::NodeSpec::cell(1));
  }
  return config;
}

}  // namespace

RouteRun run_route(int type, int reps, std::uint64_t salt, SpanLog& spans,
                   int parent) {
  RouteRun out;
  out.type = type;
  out.reps = reps;
  Harness h;
  h.type = type;
  h.reps = reps;
  h.salt = salt;
  h.spans = &spans;
  h.out = &out;
  h.request = spans.next_request();

  const std::int64_t t0 = now_ns();
  const int route_span = spans.open(kRouteSpan[type], t0, parent, h.request);
  {
    std::optional<cluster::Cluster> machine;
    machine.emplace(cluster_for(type));
    const std::int64_t built = now_ns();
    spans.add("cluster.build", t0, built, route_span, h.request);
    h.run_span = spans.open("core.run", built, route_span, h.request);
    const cellpilot::RunResult result =
        cellpilot::run(*machine, [&h](int argc, char** argv) {
          return hb_main(h, argc, argv);
        });
    const std::int64_t returned = now_ns();
    spans.close(h.run_span, returned);
    // Shut-down proper starts once PI_MAIN is in PI_StopMain *and* the
    // last round trip is done: on types 4/5 PI_MAIN waits in PI_StopMain
    // while its SPE initiator still runs the loop.
    if (h.stop_begin_ns != 0) {
      spans.add("core.stop", std::max(h.stop_begin_ns, h.loop_end_ns),
                returned, h.run_span, h.request);
    }
    if (result.aborted) {
      out.aborted = true;
      std::fprintf(stderr, "hostbench: type %d run aborted: %s\n", type,
                   result.abort_reason.c_str());
    }
  }
  const std::int64_t t1 = now_ns();
  spans.close(route_span, t1);
  out.wall_s = static_cast<double>(t1 - t0) / 1e9;
  if (reps > 0) out.one_way_ns = h.elapsed.load() / (2 * reps);
  return out;
}

std::int64_t pinned_one_way_ns(int type, bool skew) {
  // benchkit::pingpong's one-way virtual latency for 1 B, 1000 reps, on
  // the default cost model (`table2_pingpong`, CellPilot column, in ns).
  // The first round trip costs more, so the mean depends on the rep count.
  static const std::int64_t kPinned[6] = {0,      105979, 63082,
                                          146005, 107008, 185983};
  return kPinned[type] + (skew ? 1 : 0);
}

std::vector<int> route_order(std::uint64_t& state) {
  std::vector<int> order = {1, 2, 3, 4, 5};
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    const std::size_t j = mix64(state) % (i + 1);
    std::swap(order[i], order[j]);
  }
  return order;
}

void RouteSamples::add(const RouteRun& run) {
  const int t = run.type;
  if (!run.rtt_ns.empty()) {
    rtt_p50_ns[t].push_back(nearest_rank(run.rtt_ns, 50));
    rtt_p95_ns[t].push_back(nearest_rank(run.rtt_ns, 95));
    rtt_p99_ns[t].push_back(nearest_rank(run.rtt_ns, 99));
    round_trips[t] += run.rtt_ns.size();
  }
  write_ns[t].insert(write_ns[t].end(), run.write_ns.begin(),
                     run.write_ns.end());
  read_ns[t].insert(read_ns[t].end(), run.read_ns.begin(), run.read_ns.end());
  if (run.reps > 0) {
    hops_per_rtt[t].push_back(static_cast<double>(run.copilot_hops) /
                              static_cast<double>(run.reps));
  }
}

void check_route(const RouteRun& run, bool skew, Tally& tally) {
  const auto reps = static_cast<std::uint64_t>(run.reps);
  tally.ops(reps, run.aborted ? reps : reps - run.good_reps);
  if (run.reps == 0) return;
  const std::int64_t want = pinned_one_way_ns(run.type, skew);
  tally.check(!run.aborted && run.one_way_ns == want,
              "pingpong type " + std::to_string(run.type) +
                  ": virtual one-way " + std::to_string(run.one_way_ns) +
                  " ns, pinned " + std::to_string(want) + " ns");
  tally.check(run.messages == 2 * reps,
              "pingpong type " + std::to_string(run.type) + ": " +
                  std::to_string(run.messages) + " messages for " +
                  std::to_string(reps) + " round trips");
}

}  // namespace hostbench
