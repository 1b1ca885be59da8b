// ablate_type2.cpp — ablation A1: the paper observes that "type 2 uses MPI
// for the local PPE-to-Co-Pilot transfer, which could be a fast shared-
// memory copy, but nonetheless involves MPI processing in order to match
// the treatment of type 3 channels."
//
// This bench quantifies that design decision by re-running the type-2
// PingPong under cost models where the intra-node MPI transport is
// progressively replaced by a raw shared-memory copy, down to zero-cost
// handoff — the upper bound on what optimizing the Co-Pilot's local
// transport could buy.
//
// Usage: ablate_type2 [reps]
#include <cstdio>
#include <cstdlib>

#include "benchkit/args.hpp"
#include "benchkit/pingpong.hpp"

int main(int argc, char** argv) {
  const int reps =
      argc > 1
          ? benchkit::positive_count(argv[1], "usage: ablate_type2 [reps]")
          : 1000;

  struct Variant {
    const char* name;
    simtime::CostModel model;
  };
  Variant variants[] = {
      {"baseline: local MPI transport", simtime::default_cost_model()},
      {"shared-memory copy transport", simtime::default_cost_model()},
      {"zero-cost local handoff", simtime::default_cost_model()},
  };
  // Replace the local MPI legs with mapped-copy economics.
  variants[1].model.mpi_local_latency = variants[1].model.copy_setup;
  variants[1].model.mpi_local_per_byte = variants[1].model.copy_per_byte;
  variants[2].model.mpi_local_latency = 0;
  variants[2].model.mpi_local_per_byte = 0;

  std::printf("Ablation: type-2 PPE->Co-Pilot transport (%d reps)\n\n", reps);
  std::printf("%-34s %12s %12s\n", "variant", "1B (us)", "1600B (us)");
  double base_small = 0;
  for (const Variant& v : variants) {
    benchkit::PingPongSpec spec;
    spec.type = cellpilot::ChannelType::kType2;
    spec.reps = reps;
    spec.bytes = 1;
    const double small =
        benchkit::pingpong_us(spec, benchkit::Method::kCellPilot, v.model);
    spec.bytes = 1600;
    const double large =
        benchkit::pingpong_us(spec, benchkit::Method::kCellPilot, v.model);
    if (base_small == 0) base_small = small;
    std::printf("%-34s %12.1f %12.1f\n", v.name, small, large);
  }
  std::printf(
      "\nInterpretation: the gap between the first and last rows is the\n"
      "entire headroom available from the paper's proposed Co-Pilot local-\n"
      "transport optimization; the remaining latency is mailbox MMIO and\n"
      "Co-Pilot service time.\n");
  return 0;
}
