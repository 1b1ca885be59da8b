// layers.hpp — direct calls into each module's public API, shaped like the
// workloads' messages, timed on the host clock.
#pragma once

#include "bench.hpp"
#include "spans.hpp"

namespace hostbench {

/// Host ns per call of the data-plane building blocks: marshal, frame
/// check, mailbox, MFC, MiniMPI match, PILR framing, and the tracebuf /
/// metrics record seams disarmed and armed.  Adds one metric per probe.
void measure_layers(Report& report);

/// Times ckpt::serialize and ckpt::deserialize (median of five calls each,
/// in ms) on a synthetic cut shaped like a checkpointed loadmix point's
/// (`bench/loadgen --ckpt-every 16`): two shards, five quiescent
/// local-store images, journal marks and parked ops for the loadgen
/// topology's channels.  Checks the round trip.
void measure_checkpoint(Report& report, Tally& tally, SpanLog& spans);

}  // namespace hostbench
