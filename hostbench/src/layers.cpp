#include "layers.hpp"

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>

#include "cellsim/local_store.hpp"
#include "cellsim/mailbox.hpp"
#include "cellsim/mfc.hpp"
#include "core/checkpoint.hpp"
#include "core/router.hpp"
#include "mpisim/match_queue.hpp"
#include "mpisim/reliable.hpp"
#include "pilot/format.hpp"
#include "pilot/wire.hpp"
#include "simtime/metrics.hpp"
#include "simtime/tracebuf.hpp"
#include "simtime/virtual_clock.hpp"

namespace hostbench {

namespace {

/// Median host ns per call of `body` over 21 batches, each sized to take
/// about a millisecond.  `after_batch` runs untimed between batches.
template <class Body, class After>
double ns_per_call(Body&& body, After&& after_batch) {
  constexpr std::int64_t kBatchNs = 1'000'000;
  std::size_t batch = 16;
  for (;;) {  // calibrate (doubles as warm-up)
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < batch; ++i) body();
    const std::int64_t dt = now_ns() - t0;
    after_batch();
    if (dt >= kBatchNs / 2 || batch >= (std::size_t{1} << 24)) break;
    batch *= 2;
  }
  std::vector<double> per_call;
  for (int b = 0; b < 21; ++b) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < batch; ++i) body();
    per_call.push_back(static_cast<double>(now_ns() - t0) /
                       static_cast<double>(batch));
    after_batch();
  }
  return median(std::move(per_call));
}

template <class Body>
double ns_per_call(Body&& body) {
  return ns_per_call(std::forward<Body>(body), [] {});
}

void marshal_into(const pilot::Format* fmt, std::vector<std::byte>* out,
                  std::vector<std::uint32_t>* counts, ...) {
  va_list ap;
  va_start(ap, counts);
  pilot::marshal_append(*fmt, ap, *out, *counts);
  va_end(ap);
}

/// One PI_Write's marshal step on the compiled data plane: cached plan
/// lookup, marshal into the reused staging buffer, wire signature.
template <class... Args>
double marshal_ns(const char* fmt, Args... args) {
  cellpilot::FormatCache cache;
  std::vector<std::byte> staging;
  std::vector<std::uint32_t> counts;
  return ns_per_call([&] {
    const cellpilot::FormatPlan& plan = cache.lookup(fmt);
    staging.clear();
    marshal_into(&plan.parsed, &staging, &counts, args...);
    const std::uint32_t sig =
        plan.has_star ? pilot::signature(plan.parsed, counts)
                      : plan.wire_signature;
    keep(sig);
    keep(staging.data());
  });
}

/// An MPI leg's framing: frame_message on the writer, check_frame on the
/// reader.
double frame_check_ns(std::size_t bytes) {
  const std::vector<std::byte> payload(bytes, std::byte{0x5a});
  const std::uint32_t sig = 0x1234abcdu;
  const std::string where = "hostbench";
  return ns_per_call([&] {
    const std::vector<std::byte> framed = pilot::frame_message(sig, payload);
    keep(pilot::check_frame(framed, sig, bytes, where).data());
  });
}

double mfc_ns(std::size_t bytes) {
  cellsim::LocalStore ls;
  simtime::VirtualClock clock;
  cellsim::Mfc mfc(ls, clock, simtime::default_cost_model(), "hostbench");
  alignas(128) static std::byte source[16 * 1024];
  return ns_per_call([&] {
    mfc.get(0, cellsim::ea_of(source), bytes, 0);
    mfc.write_tag_mask(1);
    keep(mfc.read_tag_status_all());
  });
}

/// MiniMPI deposit + match with `depth - 1` unrelated messages queued
/// ahead of the match.  The payload buffer is recycled, so the probe times
/// matching, not allocation.
double match_ns(int depth) {
  mpisim::MatchQueue queue;
  for (int i = 1; i < depth; ++i) {
    mpisim::InboundMessage other;
    other.source = 2;
    other.tag = 99;
    queue.deposit(std::move(other));
  }
  std::vector<std::byte> payload(256);
  return ns_per_call([&] {
    mpisim::InboundMessage msg;
    msg.source = 1;
    msg.tag = 7;
    msg.payload = std::move(payload);
    queue.deposit(std::move(msg));
    std::optional<mpisim::InboundMessage> got = queue.try_match(1, 7);
    payload = std::move(got->payload);
  });
}

/// PILR framing of one payload: reliable::frame on send, unframe (with its
/// CRC check) on receive.
double pilr_ns(std::size_t bytes) {
  const std::vector<std::byte> payload(bytes, std::byte{0x3c});
  std::uint64_t seq = 0;
  return ns_per_call([&] {
    const std::vector<std::byte> wire =
        mpisim::reliable::frame(++seq, 0, payload);
    const auto parsed = mpisim::reliable::unframe(wire);
    keep(parsed->crc_ok);
  });
}

double tracebuf_ns(bool armed) {
  simtime::tracebuf::Event ev;
  ev.kind = simtime::tracebuf::Kind::kMpiSend;
  ev.bytes = 256;
  ev.channel = 3;
  ev.route_type = 2;
  std::snprintf(ev.entity, sizeof ev.entity, "node00.copilot");
  if (armed) simtime::tracebuf::arm();
  const double ns = ns_per_call(
      [&] {
        ++ev.begin;
        ev.end = ev.begin + 10;
        simtime::tracebuf::record(ev);
      },
      [] {
        if (simtime::tracebuf::armed()) simtime::tracebuf::clear();
      });
  if (armed) {
    simtime::tracebuf::disarm();
    simtime::tracebuf::clear();
  }
  return ns;
}

double metrics_ns(bool armed) {
  const std::string entity = "node00.copilot";
  std::int64_t value = 0;
  if (armed) simtime::metrics::arm();
  const double ns = ns_per_call([&] {
    value = (value + 997) & 0xfffff;
    simtime::metrics::record(simtime::metrics::Kind::kMsgLatency, 2, 3,
                             entity, value);
  });
  if (armed) {
    simtime::metrics::disarm();
    simtime::metrics::clear();
  }
  return ns;
}

}  // namespace

void measure_layers(Report& report) {
  static std::byte bytes[1600];
  static double doubles[64];
  report.add("pilot.marshal_ns.b1", marshal_ns("%*b", 1, bytes), "ns");
  report.add("pilot.marshal_ns.b1600", marshal_ns("%*b", 1600, bytes), "ns");
  report.add("pilot.marshal_ns.int", marshal_ns("%d", 42), "ns");
  report.add("pilot.marshal_ns.dbl32", marshal_ns("%*lf", 32, doubles), "ns");
  report.add("pilot.marshal_ns.dbl64", marshal_ns("%*lf", 64, doubles), "ns");
  report.add("pilot.frame_check_ns.b1", frame_check_ns(1), "ns");
  report.add("pilot.frame_check_ns.dbl64", frame_check_ns(64 * 8), "ns");

  {
    cellsim::Mailbox mbox(4);
    report.add("cellsim.mailbox_ns", ns_per_call([&] {
                 mbox.try_push(1, 0);
                 keep(mbox.try_pop());
               }),
               "ns");
  }
  report.add("cellsim.mfc_ns.16", mfc_ns(16), "ns");
  report.add("cellsim.mfc_ns.256", mfc_ns(256), "ns");
  report.add("cellsim.mfc_ns.512", mfc_ns(512), "ns");

  report.add("mpisim.match_ns.depth1", match_ns(1), "ns");
  report.add("mpisim.match_ns.depth64", match_ns(64), "ns");
  report.add("mpisim.pilr_ns.dbl32", pilr_ns(32 * 8), "ns");
  report.add("mpisim.pilr_ns.dbl64", pilr_ns(64 * 8), "ns");

  report.add("simtime.tracebuf_ns.off", tracebuf_ns(false), "ns");
  report.add("simtime.tracebuf_ns.on", tracebuf_ns(true), "ns");
  report.add("simtime.metrics_ns.off", metrics_ns(false), "ns");
  report.add("simtime.metrics_ns.on", metrics_ns(true), "ns");
}

void measure_checkpoint(Report& report, Tally& tally, SpanLog& spans) {
  namespace ckpt = cellpilot::ckpt;
  ckpt::Image image;
  image.cut = 58;
  image.channels = 13;
  image.begin = simtime::ms(190);
  image.commit = simtime::ms(191);
  image.epochs.assign(image.channels, 0);
  for (std::int32_t node = 0; node < 2; ++node) {
    ckpt::Shard shard;
    shard.node = node;
    shard.stamp = image.begin + node;
    shard.serviced = 16 * 58;
    for (std::int32_t ch = 0; ch < static_cast<std::int32_t>(image.channels);
         ++ch) {
      shard.journal.push_back({ch % 7, ch, 100u + static_cast<unsigned>(ch),
                               99u + static_cast<unsigned>(ch),
                               0x9e3779b9u * static_cast<unsigned>(ch + 1)});
    }
    for (std::int32_t k = 0; k < 2; ++k) {
      shard.parked.push_back({k, k + 1, 3, 0x1234u, 256, 0, 0, 0});
    }
    for (std::int32_t k = 0; k < (node == 0 ? 3 : 2); ++k) {
      ckpt::SpeImage spe;
      spe.pid = 2 + 3 * node + k;
      spe.clock = image.begin;
      spe.name = "node0" + std::to_string(node) + ".cell0.spe0" +
                 std::to_string(k);
      spe.ls.assign(cellsim::kLocalStoreSize, std::byte{0});
      for (std::size_t b = 0; b < spe.ls.size(); b += 61) {
        spe.ls[b] = static_cast<std::byte>(b * 31 + k);
      }
      shard.images.push_back(std::move(spe));
    }
    image.shards.push_back(std::move(shard));
  }

  std::vector<double> ser_ms;
  std::vector<double> deser_ms;
  bool ok = true;
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t req = spans.next_request();
    const std::int64_t t0 = now_ns();
    const std::vector<std::byte> bytes = ckpt::serialize(image);
    const std::int64_t t1 = now_ns();
    const ckpt::ParseResult parsed = ckpt::deserialize(bytes);
    const std::int64_t t2 = now_ns();
    spans.add("ckpt.serialize", t0, t1, -1, req);
    spans.add("ckpt.deserialize", t1, t2, -1, req);
    ser_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    deser_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
    ok = ok && parsed.ok && ckpt::serialize(parsed.image) == bytes;
  }
  tally.check(ok, "synthetic checkpoint image does not round-trip");
  report.add("core.ckpt_serialize_ms", median(ser_ms), "ms", ser_ms.size());
  report.add("core.ckpt_deserialize_ms", median(deser_ms), "ms",
             deser_ms.size());
}

}  // namespace hostbench
