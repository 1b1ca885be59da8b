// ablate_copilot.cpp — ablation A2: sensitivity of every SPE-connected
// channel type to the Co-Pilot's per-request costs (mailbox MMIO reads and
// service time).  The paper's future work says "it may also be possible to
// optimize the operation of the Co-Pilot process and reduce its overhead";
// this sweep shows where that optimization would land each channel type
// relative to the hand-coded floors.
//
// Usage: ablate_copilot [reps]
#include <cstdio>
#include <cstdlib>

#include "benchkit/args.hpp"
#include "benchkit/pingpong.hpp"

int main(int argc, char** argv) {
  const int reps =
      argc > 1
          ? benchkit::positive_count(argv[1], "usage: ablate_copilot [reps]")
          : 500;
  const double scales[] = {1.0, 0.5, 0.25, 0.0};

  std::printf("Ablation: Co-Pilot request-handling cost scale (%d reps)\n\n",
              reps);
  std::printf("%-8s", "scale");
  for (int type = 2; type <= 5; ++type) std::printf("  T%d CP (us)", type);
  std::printf("%12s%12s\n", "T2 DMA", "T4 DMA");

  for (const double s : scales) {
    simtime::CostModel model = simtime::default_cost_model();
    model.mbox_ppe_read =
        static_cast<simtime::SimTime>(model.mbox_ppe_read * s);
    model.mbox_ppe_write =
        static_cast<simtime::SimTime>(model.mbox_ppe_write * s);
    model.copilot_service =
        static_cast<simtime::SimTime>(model.copilot_service * s);

    std::printf("%-8.2f", s);
    for (int type = 2; type <= 5; ++type) {
      benchkit::PingPongSpec spec;
      spec.type = static_cast<cellpilot::ChannelType>(type);
      spec.bytes = 1;
      spec.reps = reps;
      std::printf("  %10.1f", benchkit::pingpong_us(
                                  spec, benchkit::Method::kCellPilot, model));
    }
    // Hand-coded floors (unchanged by the Co-Pilot knobs except the PPE
    // mailbox costs they share).
    benchkit::PingPongSpec t2;
    t2.type = cellpilot::ChannelType::kType2;
    t2.bytes = 1;
    t2.reps = reps;
    benchkit::PingPongSpec t4 = t2;
    t4.type = cellpilot::ChannelType::kType4;
    std::printf("%12.1f%12.1f\n",
                benchkit::pingpong_us(t2, benchkit::Method::kDma, model),
                benchkit::pingpong_us(t4, benchkit::Method::kDma, model));
  }
  std::printf(
      "\nInterpretation: even a free Co-Pilot cannot reach the hand-coded\n"
      "DMA floor on type 2/3 (the local MPI hop remains), but type 4/5\n"
      "close most of their gap — the overhead is dominated by per-request\n"
      "mailbox MMIO and service time, as the paper's analysis suggests.\n");
  return 0;
}
