// Tests for the PingPong measurement harness itself.
#include "benchkit/pingpong.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "baseline/handcoded.hpp"

namespace {

using benchkit::Method;
using benchkit::PingPongSpec;
using cellpilot::ChannelType;

TEST(Benchkit, MethodNames) {
  EXPECT_STREQ(benchkit::to_string(Method::kCellPilot), "CellPilot");
  EXPECT_STREQ(benchkit::to_string(Method::kDma), "DMA");
  EXPECT_STREQ(benchkit::to_string(Method::kCopy), "Copy");
}

TEST(Benchkit, EveryCellOfTableTwoIsPositive) {
  const simtime::CostModel cost = simtime::default_cost_model();
  for (int type = 1; type <= 5; ++type) {
    for (std::size_t bytes : {std::size_t{1}, std::size_t{1600}}) {
      for (Method m : {Method::kCellPilot, Method::kDma, Method::kCopy}) {
        PingPongSpec spec;
        spec.type = static_cast<ChannelType>(type);
        spec.bytes = bytes;
        spec.reps = 10;
        EXPECT_GT(benchkit::pingpong(spec, m, cost), 0)
            << "type " << type << " bytes " << bytes << " method "
            << benchkit::to_string(m);
      }
    }
  }
}

TEST(Benchkit, BaselinesAreDeterministicToo) {
  const simtime::CostModel cost = simtime::default_cost_model();
  const auto a =
      baseline::dma_pingpong(ChannelType::kType5, 1600, 25, cost);
  const auto b =
      baseline::dma_pingpong(ChannelType::kType5, 1600, 25, cost);
  EXPECT_EQ(a, b);
  const auto c =
      baseline::copy_pingpong(ChannelType::kType3, 64, 25, cost);
  const auto d =
      baseline::copy_pingpong(ChannelType::kType3, 64, 25, cost);
  EXPECT_EQ(c, d);
}

TEST(Benchkit, ThroughputIsBytesOverOneWayTime) {
  const simtime::CostModel cost = simtime::default_cost_model();
  PingPongSpec spec;
  spec.type = ChannelType::kType2;
  spec.bytes = 1600;
  spec.reps = 20;
  const double one_way_us =
      benchkit::pingpong_us(spec, Method::kDma, cost);
  const double mbps = benchkit::throughput_mbps(spec, Method::kDma, cost);
  EXPECT_NEAR(mbps, 1600.0 / one_way_us, 0.01);
}

TEST(Benchkit, RepsDoNotChangeSteadyStateLatency) {
  // One-way latency is elapsed/2N: once the pipeline fills, more reps
  // converge to the same per-transfer figure.
  const simtime::CostModel cost = simtime::default_cost_model();
  PingPongSpec few;
  few.type = ChannelType::kType4;
  few.bytes = 16;
  few.reps = 50;
  PingPongSpec many = few;
  many.reps = 200;
  const double a = benchkit::pingpong_us(few, Method::kCellPilot, cost);
  const double b = benchkit::pingpong_us(many, Method::kCellPilot, cost);
  EXPECT_NEAR(a, b, a * 0.02);
}

TEST(Benchkit, HarnessIsReentrant) {
  // The harness carries no global state: interleaving runs with different
  // specs reproduces each spec's isolated result exactly.
  const simtime::CostModel cost = simtime::default_cost_model();
  PingPongSpec small;
  small.type = ChannelType::kType2;
  small.bytes = 16;
  small.reps = 20;
  PingPongSpec large;
  large.type = ChannelType::kType5;
  large.bytes = 1600;
  large.reps = 20;

  const auto small_alone = benchkit::pingpong(small, Method::kCellPilot, cost);
  const auto large_alone = benchkit::pingpong(large, Method::kCellPilot, cost);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(benchkit::pingpong(small, Method::kCellPilot, cost),
              small_alone);
    EXPECT_EQ(benchkit::pingpong(large, Method::kCellPilot, cost),
              large_alone);
  }
}

TEST(Benchkit, ZeroCostModelCollapsesLatency) {
  const simtime::CostModel zero = simtime::zero_cost_model();
  PingPongSpec spec;
  spec.type = ChannelType::kType2;
  spec.bytes = 64;
  spec.reps = 10;
  EXPECT_EQ(benchkit::pingpong(spec, Method::kDma, zero), 0);
  EXPECT_EQ(benchkit::pingpong(spec, Method::kCellPilot, zero), 0);
}

// The nearest-rank summary benches apply to their own sample lists.
TEST(Stats, EmptyDefaults) {
  const benchkit::SampleStats s = benchkit::summarize_samples({});
  EXPECT_EQ(s.p50, 0);
  EXPECT_EQ(s.p99, 0);
}

TEST(Stats, PercentilesByNearestRank) {
  std::vector<simtime::SimTime> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);  // unsorted input
  const benchkit::SampleStats s = benchkit::summarize_samples(samples);
  EXPECT_EQ(s.p50, 50);
  EXPECT_EQ(s.p99, 99);
}

}  // namespace
