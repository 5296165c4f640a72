/**
 * @file
 * Core model tests: retire width, memory stalls, bypass path, and IPC
 * behaviour on synthetic traces.
 */

#include <gtest/gtest.h>

#include "src/cpu/core.hh"
#include "src/mem/controller.hh"
#include "src/sim/system.hh"

namespace dapper {
namespace {

/** Trace with fixed bubbles and optionally no memory at all. */
class SyntheticGen : public TraceGen
{
  public:
    SyntheticGen(std::uint32_t bubbles, bool bypass, std::uint64_t stride)
        : bubbles_(bubbles), bypass_(bypass), stride_(stride)
    {
    }

    TraceRecord
    next() override
    {
        TraceRecord rec;
        rec.bubbles = bubbles_;
        rec.isWrite = false;
        rec.bypassLlc = bypass_;
        rec.addr = addr_;
        addr_ += stride_;
        return rec;
    }

    std::string name() const override { return "synthetic"; }

  private:
    std::uint32_t bubbles_;
    bool bypass_;
    std::uint64_t stride_;
    std::uint64_t addr_ = 0;
};

class CoreTest : public ::testing::Test
{
  protected:
    CoreTest()
        : mapper_(cfg_),
          mc0_(cfg_, 0, nullptr, nullptr, nullptr),
          mc1_(cfg_, 1, nullptr, nullptr, nullptr),
          llc_(cfg_, mapper_, {&mc0_, &mc1_})
    {
    }

    void
    run(Core &core, Tick end)
    {
        for (Tick t = 0; t < end; ++t) {
            core.tick(t);
            mc0_.tick(t);
            mc1_.tick(t);
        }
    }

    SysConfig cfg_;
    AddressMapper mapper_;
    MemController mc0_;
    MemController mc1_;
    Llc llc_;
};

TEST_F(CoreTest, ComputeBoundIpcApproachesWidth)
{
    SyntheticGen gen(100000, false, 64); // Essentially pure compute.
    Core core(cfg_, 0, &gen, &llc_, {&mc0_, &mc1_}, &mapper_, 16);
    run(core, 10000);
    const double ipc =
        static_cast<double>(core.retired()) / 10000.0;
    EXPECT_GT(ipc, 3.5);
    EXPECT_LE(ipc, 4.001);
}

TEST_F(CoreTest, MemoryBoundIpcIsLatencyLimited)
{
    // Bubble-free random-row loads through the LLC (all miss).
    SyntheticGen gen(0, false, 1 << 20);
    Core core(cfg_, 0, &gen, &llc_, {&mc0_, &mc1_}, &mapper_, 16);
    run(core, 50000);
    const double ipc = static_cast<double>(core.retired()) / 50000.0;
    EXPECT_LT(ipc, 1.0); // Far below width.
    EXPECT_GT(core.memReads(), 100u);
}

// The completion queue is a FIFO: a completion due before one already
// queued must abort, not pop late.
TEST_F(CoreTest, OutOfOrderCompletionAborts)
{
    SyntheticGen gen(0, false, 64);
    Core core(cfg_, 0, &gen, &llc_, {&mc0_, &mc1_}, &mapper_, 16);
    core.completeAt(0, 100);
    core.completeAt(1, 100); // Same due tick: fine.
    EXPECT_DEATH(core.completeAt(2, 99), "due order");
}

TEST_F(CoreTest, BypassPathSkipsLlc)
{
    SyntheticGen gen(0, true, 1 << 20);
    Core core(cfg_, 0, &gen, &llc_, {&mc0_, &mc1_}, &mapper_, 16);
    run(core, 20000);
    EXPECT_GT(core.memReads(), 50u);
    EXPECT_EQ(llc_.stats().misses, 0u); // Never touched the cache.
    EXPECT_GT(mc0_.stats().reads + mc1_.stats().reads, 50u);
}

TEST_F(CoreTest, MshrLimitBoundsOutstanding)
{
    SyntheticGen gen(0, true, 1 << 20);
    Core fat(cfg_, 0, &gen, &llc_, {&mc0_, &mc1_}, &mapper_, 64);
    SyntheticGen gen2(0, true, 1 << 20);
    Core thin(cfg_, 1, &gen2, &llc_, {&mc0_, &mc1_}, &mapper_, 1);
    run(fat, 20000);
    const auto fatReads = fat.memReads();
    // Restart controllers implicitly shared; just compare throughputs.
    for (Tick t = 20000; t < 40000; ++t) {
        thin.tick(t);
        mc0_.tick(t);
        mc1_.tick(t);
    }
    EXPECT_GT(fatReads, thin.memReads() * 3);
}

// Batched-retire contract (src/cpu/README.md): driving a core through
// the event API (tickEvent + nextEventAt watermarks, closed-form
// retirement of stall-free runs) must reproduce the per-tick reference
// loop's observable state exactly, across the bubble spectrum — from
// bubble-free (no batch ever forms) to compute-bound (batches span
// thousands of ticks and are cut only by the fetch-slack bound).
TEST_F(CoreTest, BatchedEventSteppingMatchesReference)
{
    for (const std::uint32_t bubbles : {0u, 7u, 100u, 5000u}) {
        // Two private memory systems so the runs cannot interfere.
        MemController emc0(cfg_, 0, nullptr, nullptr, nullptr);
        MemController emc1(cfg_, 1, nullptr, nullptr, nullptr);
        Llc ellc(cfg_, mapper_, {&emc0, &emc1});
        SyntheticGen egen(bubbles, false, 64);
        Core event(cfg_, 0, &egen, &ellc, {&emc0, &emc1}, &mapper_, 16);

        MemController rmc0(cfg_, 0, nullptr, nullptr, nullptr);
        MemController rmc1(cfg_, 1, nullptr, nullptr, nullptr);
        Llc rllc(cfg_, mapper_, {&rmc0, &rmc1});
        SyntheticGen rgen(bubbles, false, 64);
        Core ref(cfg_, 0, &rgen, &rllc, {&rmc0, &rmc1}, &mapper_, 16);

        const Tick end = 20000;
        for (Tick t = 0; t < end; ++t) {
            if (event.nextEventAt() <= t)
                event.tickEvent(t, end - 1);
            emc0.tick(t);
            emc1.tick(t);
            ref.tick(t);
            rmc0.tick(t);
            rmc1.tick(t);
        }
        EXPECT_EQ(event.retired(), ref.retired()) << "bubbles " << bubbles;
        EXPECT_EQ(event.memReads(), ref.memReads())
            << "bubbles " << bubbles;
        EXPECT_EQ(ellc.stats().hits, rllc.stats().hits)
            << "bubbles " << bubbles;
        EXPECT_EQ(ellc.stats().misses, rllc.stats().misses)
            << "bubbles " << bubbles;
        EXPECT_EQ(emc0.stats().reads + emc1.stats().reads,
                  rmc0.stats().reads + rmc1.stats().reads)
            << "bubbles " << bubbles;
    }
}

TEST_F(CoreTest, RetireCountsBubblesAndMemOps)
{
    SyntheticGen gen(9, false, 64); // 10 instructions per record.
    Core core(cfg_, 0, &gen, &llc_, {&mc0_, &mc1_}, &mapper_, 16);
    run(core, 30000);
    // Sequential 64B strides: high row locality, decent IPC; retired
    // counts bubbles + memory instructions.
    EXPECT_GT(core.retired(), core.memReads() * 9);
}

} // namespace
} // namespace dapper
