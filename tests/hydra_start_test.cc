/**
 * @file
 * Hydra and START unit tests: group-counter escalation, RCC behaviour
 * and counter traffic, LLC-resident counters, mitigation thresholds.
 */

#include <gtest/gtest.h>

#include "src/cache/llc.hh"
#include "src/mem/controller.hh"
#include "src/rh/hydra.hh"
#include "src/rh/start.hh"

namespace dapper {
namespace {

SysConfig
cfg500()
{
    SysConfig cfg;
    cfg.nRH = 500;
    return cfg;
}

ActEvent
act(int bank, int row)
{
    return {0, 0, bank, row, 0, 0};
}

int
countKind(const MitigationVec &v, Mitigation::Kind kind)
{
    int n = 0;
    for (const auto &m : v)
        if (m.kind == kind)
            ++n;
    return n;
}

TEST(Hydra, GroupCounterEscalatesAtNgc)
{
    SysConfig cfg = cfg500();
    HydraTracker tracker(cfg);
    MitigationVec out;
    const int nGC = static_cast<int>(0.8 * (cfg.nM() - 2));
    const std::uint64_t rowId = 7ULL * 65536 + 1000; // bank 7, row 1000.

    for (int i = 0; i < nGC - 1; ++i)
        tracker.onActivation(act(7, 1000), out);
    EXPECT_FALSE(tracker.groupPerRow(0, 0, rowId));
    tracker.onActivation(act(7, 1000), out);
    EXPECT_TRUE(tracker.groupPerRow(0, 0, rowId));
    // Per-row counters start at N_GC (conservative initialization) and
    // the escalating activation itself is then counted per-row.
    EXPECT_EQ(tracker.rctCount(0, 0, rowId),
              static_cast<std::uint32_t>(nGC + 1));
}

TEST(Hydra, MitigatesAtThresholdAfterEscalation)
{
    SysConfig cfg = cfg500();
    HydraTracker tracker(cfg);
    MitigationVec out;
    int vrr = 0;
    for (int i = 0; i < cfg.nM() + 8 && vrr == 0; ++i) {
        out.clear();
        tracker.onActivation(act(7, 1000), out);
        vrr = countKind(out, Mitigation::Kind::VrrRow);
    }
    EXPECT_EQ(vrr, 1);
    EXPECT_EQ(tracker.rctCount(0, 0, 7ULL * 65536 + 1000), 0u);
}

TEST(Hydra, RccMissesGenerateCounterTraffic)
{
    SysConfig cfg = cfg500();
    HydraTracker tracker(cfg);
    MitigationVec out;
    // Escalate one group, then touch > 4K distinct escalated rows so the
    // RCC (4K entries) overflows. Easiest: escalate many groups with the
    // attack pattern (rows congruent mod 128 share an RCC set).
    const int nGC = static_cast<int>(0.8 * (cfg.nM() - 2));
    for (int set = 0; set < 64; ++set)
        for (int i = 0; i < nGC; ++i)
            tracker.onActivation(act(set % 32, 8192 + set * 128), out);

    out.clear();
    std::uint64_t traffic = 0;
    for (int round = 0; round < 4; ++round)
        for (int set = 0; set < 64; ++set) {
            out.clear();
            tracker.onActivation(act(set % 32, 8192 + set * 128), out);
            traffic += static_cast<std::uint64_t>(
                countKind(out, Mitigation::Kind::CounterRead));
        }
    // 64 rows in a 32-way set: ~87% miss probability per the paper.
    EXPECT_GT(traffic, 100u);
    EXPECT_GT(tracker.rccMisses(), tracker.rccHits());
}

TEST(Hydra, WindowResetClearsEverything)
{
    SysConfig cfg = cfg500();
    HydraTracker tracker(cfg);
    MitigationVec out;
    const std::uint64_t rowId = 7ULL * 65536 + 1000;
    // write -> reset -> write -> reset: the second window must count
    // exactly as the first, from a fully zeroed table.
    std::uint32_t firstCount = 0;
    for (int window = 0; window < 2; ++window) {
        for (int i = 0; i < 300; ++i)
            tracker.onActivation(act(7, 1000), out);
        ASSERT_TRUE(tracker.groupPerRow(0, 0, rowId));
        const std::uint32_t count = tracker.rctCount(0, 0, rowId);
        EXPECT_GT(count, 0u);
        // Escalation seeded every row of the group.
        EXPECT_GT(tracker.rctCount(0, 0, rowId + 1), 0u);
        if (window == 0)
            firstCount = count;
        EXPECT_EQ(count, firstCount) << "window " << window;
        tracker.onRefreshWindow(0, out);
        EXPECT_FALSE(tracker.groupPerRow(0, 0, rowId));
        EXPECT_EQ(tracker.rctCount(0, 0, rowId), 0u);
        EXPECT_EQ(tracker.rctCount(0, 0, rowId + 1), 0u);
    }
}

class StartTest : public ::testing::Test
{
  protected:
    StartTest()
        : cfg_(cfg500()),
          mapper_(cfg_),
          mc0_(cfg_, 0, nullptr, nullptr, nullptr),
          mc1_(cfg_, 1, nullptr, nullptr, nullptr),
          llc_(cfg_, mapper_, {&mc0_, &mc1_}),
          tracker_(cfg_)
    {
        llc_.reserveWays(cfg_.llcWays / 2, 0);
        tracker_.attachLlc(&llc_);
    }

    SysConfig cfg_;
    AddressMapper mapper_;
    MemController mc0_;
    MemController mc1_;
    Llc llc_;
    StartTracker tracker_;
};

TEST_F(StartTest, FirstTouchFetchesCounterLine)
{
    MitigationVec out;
    tracker_.onActivation(act(0, 100), out);
    EXPECT_EQ(countKind(out, Mitigation::Kind::CounterRead), 1);
    // Second touch: counter line now cached.
    out.clear();
    tracker_.onActivation(act(0, 100), out);
    EXPECT_EQ(countKind(out, Mitigation::Kind::CounterRead), 0);
    EXPECT_EQ(tracker_.rctCount(0, 0, 100), 2u);
}

TEST_F(StartTest, StreamingEvictsCounterLines)
{
    MitigationVec out;
    // Touch more distinct counter lines than the reserved region holds
    // (8 ways x 8192 sets = 64K lines). Two ranks x 32 banks x 2048
    // line-aligned rows = 128K distinct counter lines.
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    for (int sweep = 0; sweep < 2; ++sweep)
        for (std::uint64_t i = 0; i < 131072; ++i) {
            out.clear();
            const int rank = static_cast<int>(i & 1);
            const int bank = static_cast<int>((i >> 1) & 31);
            const int row = static_cast<int>(((i >> 6) * 32) % 65536);
            tracker_.onActivation({0, rank, bank, row, 0, 0}, out);
            reads += static_cast<std::uint64_t>(
                countKind(out, Mitigation::Kind::CounterRead));
            writes += static_cast<std::uint64_t>(
                countKind(out, Mitigation::Kind::CounterWrite));
        }
    EXPECT_GT(reads, 120000u); // Nearly every access misses.
    EXPECT_GT(writes, 60000u); // Dirty counter writebacks.
}

TEST_F(StartTest, MitigatesAtThreshold)
{
    MitigationVec out;
    int vrr = 0;
    int acts = 0;
    for (int i = 0; i < cfg_.nM() + 4 && vrr == 0; ++i) {
        out.clear();
        tracker_.onActivation(act(3, 2000), out);
        ++acts;
        vrr = countKind(out, Mitigation::Kind::VrrRow);
    }
    EXPECT_EQ(vrr, 1);
    EXPECT_LE(acts, cfg_.nM());
    EXPECT_EQ(tracker_.rctCount(0, 0, 3ULL * 65536 + 2000), 0u);
}

TEST_F(StartTest, WindowResetZeroesCounters)
{
    MitigationVec out;
    // write -> reset -> write -> reset: a stale count from the first
    // window would show as 200 in the second.
    for (int window = 0; window < 2; ++window) {
        for (int i = 0; i < 100; ++i)
            tracker_.onActivation(act(3, 2000), out);
        EXPECT_EQ(tracker_.rctCount(0, 0, 3ULL * 65536 + 2000), 100u)
            << "window " << window;
        tracker_.onRefreshWindow(0, out);
        EXPECT_EQ(tracker_.rctCount(0, 0, 3ULL * 65536 + 2000), 0u);
    }
}

} // namespace
} // namespace dapper
