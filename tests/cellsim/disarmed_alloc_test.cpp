// The "zero cost when disarmed" promise as a checked invariant: with every
// observability subsystem disarmed, the per-message hardware primitives
// (an MFC command, an SPU mailbox write and read) allocate nothing on the
// host heap.  The binary replaces the global operator new with a counter,
// so it stands alone rather than joining a shared test executable.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>

#include "cellsim/mfc.hpp"
#include "cellsim/spu.hpp"
#include "cluster/cluster.hpp"
#include "simtime/metrics.hpp"
#include "simtime/timeseries.hpp"
#include "simtime/tracebuf.hpp"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// Out of line: inlined into a caller, GCC pairs the free with that
// caller's `new` and flags a false -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

constexpr int kOps = 1000;

/// Counts the heap allocations `body` makes on any thread.
template <typename Body>
long allocations_during(Body body) {
  g_allocations.store(0);
  g_counting.store(true);
  body();
  g_counting.store(false);
  return g_allocations.load();
}

class DisarmedAllocation : public ::testing::Test {
 protected:
  DisarmedAllocation() : machine_(config()), spe_(machine_.spe(0, 0)) {}

  static cluster::ClusterConfig config() {
    cluster::ClusterConfig c;
    c.nodes.push_back(cluster::NodeSpec::cell(1));
    return c;
  }

  void SetUp() override {
    ASSERT_FALSE(simtime::tracebuf::armed());
    ASSERT_FALSE(simtime::metrics::armed());
    ASSERT_FALSE(simtime::timeseries::armed());
    // The simulator's own name, one past libstdc++'s 15-character inline
    // string buffer: any copy of it is a heap allocation.
    ASSERT_GT(spe_.name().size(), 15u) << spe_.name();
  }

  cluster::Cluster machine_;
  cellsim::Spe& spe_;
};

TEST_F(DisarmedAllocation, MfcGetAllocatesNothing) {
  alignas(128) static std::array<std::byte, 256> main_memory{};
  const cellsim::EffectiveAddress ea = cellsim::ea_of(main_memory.data());
  const long n = allocations_during([&] {
    for (int i = 0; i < kOps; ++i) {
      spe_.mfc().get(0, ea, 16, static_cast<unsigned>(i % 32));
    }
  });
  EXPECT_EQ(spe_.mfc().commands_issued(), static_cast<std::uint64_t>(kOps));
  EXPECT_EQ(n, 0) << "allocations across " << kOps << " MFC gets on "
                  << spe_.name();
}

TEST_F(DisarmedAllocation, MailboxWriteAndReadAllocateNothing) {
  namespace spu = cellsim::spu;
  spu::bind(spu::SpuEnv{&spe_, &spe_.cost(), spe_.physical_id()});
  std::uint32_t sum = 0;
  const long n = allocations_during([&] {
    for (int i = 0; i < kOps; ++i) {
      const auto word = static_cast<std::uint32_t>(i);
      spu::spu_write_out_mbox(word);
      // The PPE side drains the outbound word and answers on the inbound
      // mailbox, so neither one-deep FIFO ever blocks.
      sum += spe_.outbound_mailbox().try_pop()->value;
      spe_.inbound_mailbox().push_blocking(word, spe_.clock().now());
      sum -= spu::spu_read_in_mbox();
    }
  });
  spu::unbind();
  EXPECT_EQ(sum, 0u);
  EXPECT_EQ(n, 0) << "allocations across " << kOps
                  << " mailbox write/read pairs on " << spe_.name();
}

}  // namespace
