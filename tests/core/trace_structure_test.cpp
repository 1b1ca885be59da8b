// Protocol-structure tests: the event trace must show exactly the hops the
// paper's §IV design prescribes for each channel type — no more, no fewer.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/cellpilot.hpp"
#include "core/protocol.hpp"
#include "core/trace.hpp"
#include "simtime/tracebuf.hpp"

namespace {

namespace tb = simtime::tracebuf;
using cellpilot::Opcode;
using cellpilot::trace::ScopedTraceCapture;

PI_CHANNEL* g_ch = nullptr;
PI_PROCESS* g_remote_spe = nullptr;
int g_tag = 0;  // captured during the run: channels die with the app

/// Counts events of `kind` from entities containing `who` whose aux (the
/// MPI tag, the Co-Pilot request opcode) equals `aux`, if one is given.
std::size_t count_events(const std::vector<tb::Event>& events, tb::Kind kind,
                         const std::string& who,
                         std::optional<std::int64_t> aux = std::nullopt) {
  std::size_t n = 0;
  for (const auto& e : events) {
    const bool from_who = std::string(e.entity).find(who) != std::string::npos;
    if (e.kind == kind && from_who && (!aux || e.aux == *aux)) ++n;
  }
  return n;
}

std::int64_t opcode(Opcode op) { return static_cast<std::int64_t>(op); }

PI_SPE_PROGRAM(ts_reader) {
  int v = 0;
  PI_Read(g_ch, "%d", &v);
  return 0;
}

TEST(TraceStructure, Type2WriteIsOneLocalMpiMessageAndOneRequest) {
  cluster::ClusterConfig config;
  config.nodes.push_back(cluster::NodeSpec::cell(1));
  cluster::Cluster machine(std::move(config));
  ScopedTraceCapture capture;
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* spe = PI_CreateSPE(ts_reader, PI_MAIN, 0);
    g_ch = PI_CreateChannel(PI_MAIN, spe);
    g_tag = g_ch->tag();
    PI_StartAll();
    PI_RunSPE(spe, 0, nullptr);
    PI_Write(g_ch, "%d", 7);
    PI_StopMain(0);
    return 0;
  });
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  const auto events = capture.drain();
  // Exactly one data message, from the writing rank to the Co-Pilot.
  EXPECT_EQ(count_events(events, tb::Kind::kMpiSend, "rank0", g_tag), 1u);
  EXPECT_EQ(count_events(events, tb::Kind::kMpiSend, "copilot", g_tag), 0u);
  // Exactly one SPE request serviced (the read).
  EXPECT_EQ(count_events(events, tb::Kind::kCopilotRequest, "copilot",
                         opcode(Opcode::kRead)),
            1u);
  // Nothing is a type-4 local copy.
  EXPECT_EQ(count_events(events, tb::Kind::kCopilotPair, ""), 0u);
}

PI_SPE_PROGRAM(ts_writer) {
  PI_Write(g_ch, "%d", 9);
  return 0;
}

int ts_parent(int /*index*/, void* /*arg*/) {
  PI_RunSPE(g_remote_spe, 0, nullptr);
  return 0;
}

TEST(TraceStructure, Type5CrossesTheNetworkExactlyOnceViaTwoCopilots) {
  cluster::Cluster machine(cluster::ClusterConfig::two_cells());
  ScopedTraceCapture capture;
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* parent = PI_CreateProcess(ts_parent, 0, nullptr);
    PI_PROCESS* writer = PI_CreateSPE(ts_writer, PI_MAIN, 0);
    g_remote_spe = PI_CreateSPE(ts_reader, parent, 0);
    g_ch = PI_CreateChannel(writer, g_remote_spe);
    g_tag = g_ch->tag();
    PI_StartAll();
    PI_RunSPE(writer, 0, nullptr);
    PI_StopMain(0);
    return 0;
  });
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  const auto events = capture.drain();
  // One relay: writer's Co-Pilot (node0) -> reader's Co-Pilot (node1).
  EXPECT_EQ(count_events(events, tb::Kind::kMpiSend, "node0.copilot", g_tag),
            1u);
  EXPECT_EQ(count_events(events, tb::Kind::kMpiSend, "node1.copilot", g_tag),
            0u);
  EXPECT_EQ(count_events(events, tb::Kind::kMpiSend, "rank", g_tag), 0u);
  // One write request at node0, one read request at node1.
  EXPECT_EQ(count_events(events, tb::Kind::kCopilotRequest, "node0",
                         opcode(Opcode::kWrite)),
            1u);
  EXPECT_EQ(count_events(events, tb::Kind::kCopilotRequest, "node1",
                         opcode(Opcode::kRead)),
            1u);
}

PI_SPE_PROGRAM(ts_pair_writer) {
  PI_Write(g_ch, "%d", 3);
  return 0;
}

TEST(TraceStructure, Type4NeverTouchesMpiDataPaths) {
  cluster::ClusterConfig config;
  config.nodes.push_back(cluster::NodeSpec::cell(1));
  cluster::Cluster machine(std::move(config));
  ScopedTraceCapture capture;
  PI_PROCESS* reader_proc = nullptr;
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* writer = PI_CreateSPE(ts_pair_writer, PI_MAIN, 0);
    reader_proc = PI_CreateSPE(ts_reader, PI_MAIN, 1);
    g_ch = PI_CreateChannel(writer, reader_proc);
    g_tag = g_ch->tag();
    PI_StartAll();
    PI_RunSPE(writer, 0, nullptr);
    PI_RunSPE(reader_proc, 0, nullptr);
    PI_StopMain(0);
    return 0;
  });
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  const auto events = capture.drain();
  // No MPI message ever carries the channel's data...
  EXPECT_EQ(count_events(events, tb::Kind::kMpiSend, "", g_tag), 0u);
  // ...exactly one local-store to local-store copy does.
  EXPECT_EQ(count_events(events, tb::Kind::kCopilotPair, ""), 1u);
  // Both requests serviced by the single Co-Pilot.
  EXPECT_EQ(count_events(events, tb::Kind::kCopilotRequest, "copilot"), 2u);
}

}  // namespace
