/**
 * @file
 * PARA, PrIDE, PRAC, and BlockHammer unit tests: mitigation
 * probabilities, RFM cadence, per-row counting with Alert Back-Off,
 * and blacklist throttling.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "src/rh/blockhammer.hh"
#include "src/rh/para.hh"
#include "src/rh/prac.hh"
#include "src/rh/pride.hh"

namespace dapper {
namespace {

SysConfig
cfgAt(int nrh)
{
    SysConfig cfg;
    cfg.nRH = nrh;
    return cfg;
}

ActEvent
act(int bank, int row, Tick now = 0)
{
    return {0, 0, bank, row, now, 0};
}

TEST(Para, MitigationRateMatchesProbability)
{
    SysConfig cfg = cfgAt(500);
    ParaTracker tracker(cfg);
    MitigationVec out;
    const int acts = 200000;
    int refreshes = 0;
    for (int i = 0; i < acts; ++i) {
        out.clear();
        tracker.onActivation(act(i % 32, i % 1024), out);
        refreshes += static_cast<int>(out.size());
    }
    const double rate = static_cast<double>(refreshes) / acts;
    EXPECT_NEAR(rate, tracker.probability(), 0.003);
}

TEST(Para, ProbabilityScalesInverselyWithThreshold)
{
    EXPECT_NEAR(ParaTracker(cfgAt(500)).probability() /
                    ParaTracker(cfgAt(2000)).probability(),
                4.0, 0.01);
}

TEST(Para, SurvivalProbabilityIsTiny)
{
    // (1 - p)^NRH must be far below 1e-6 — the design's security basis.
    SysConfig cfg = cfgAt(500);
    ParaTracker tracker(cfg);
    const double survive =
        std::pow(1.0 - tracker.probability(), cfg.nRH);
    EXPECT_LT(survive, 1e-6);
}

TEST(Pride, RfmCadenceScalesWithThreshold)
{
    EXPECT_EQ(PrideTracker(cfgAt(4000), false).rfmsPerTrefi(), 1);
    EXPECT_EQ(PrideTracker(cfgAt(1000), false).rfmsPerTrefi(), 1);
    EXPECT_EQ(PrideTracker(cfgAt(500), false).rfmsPerTrefi(), 2);
    EXPECT_EQ(PrideTracker(cfgAt(250), false).rfmsPerTrefi(), 4);
    EXPECT_EQ(PrideTracker(cfgAt(125), false).rfmsPerTrefi(), 8);
}

TEST(Pride, SampledRowsGetMitigatedOnRfm)
{
    SysConfig cfg = cfgAt(500);
    PrideTracker tracker(cfg, false);
    MitigationVec out;
    // Hammer long enough that sampling (p = 1/16) certainly catches us.
    for (int i = 0; i < 1000; ++i)
        tracker.onActivation(act(5, 999), out);
    EXPECT_TRUE(out.empty()); // Mitigation waits for the RFM slot.
    tracker.onPeriodic(cfg.tREFI(), out);
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out[0].kind, Mitigation::Kind::VrrRow);
    EXPECT_EQ(out[0].row, 999);
}

TEST(Pride, RfmSbVariantEmitsRfmCommands)
{
    SysConfig cfg = cfgAt(500);
    PrideTracker tracker(cfg, true);
    MitigationVec out;
    for (int i = 0; i < 1000; ++i)
        tracker.onActivation(act(5, 999), out);
    tracker.onPeriodic(cfg.tREFI(), out);
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out[0].kind, Mitigation::Kind::RfmSb);
}

TEST(Prac, EveryActPaysTheRmwTax)
{
    PracTracker tracker(cfgAt(500));
    EXPECT_EQ(tracker.actExtraTicks(), nsToTicks(4.0));
}

TEST(Prac, MitigatesAtThresholdViaProactiveQueue)
{
    SysConfig cfg = cfgAt(500);
    PracTracker tracker(cfg);
    MitigationVec out;
    int acts = 0;
    while (out.empty() && acts < cfg.nM() + 4) {
        tracker.onActivation(act(2, 777), out);
        ++acts;
    }
    ASSERT_FALSE(out.empty());
    // Common case is a cheap per-bank victim refresh (QPRAC's proactive
    // service), not the channel-stalling ALERT back-off.
    EXPECT_EQ(out[0].kind, Mitigation::Kind::VrrRow);
    EXPECT_LE(acts, cfg.nM());
    EXPECT_EQ(tracker.counterOf(0, 0, 2, 777), 0u);
}

TEST(Prac, CountersArePerRow)
{
    PracTracker tracker(cfgAt(500));
    MitigationVec out;
    for (int i = 0; i < 7; ++i)
        tracker.onActivation(act(2, 777), out);
    tracker.onActivation(act(2, 778), out);
    EXPECT_EQ(tracker.counterOf(0, 0, 2, 777), 7u);
    EXPECT_EQ(tracker.counterOf(0, 0, 2, 778), 1u);
}

TEST(Prac, WindowResetZeroesCounters)
{
    SysConfig cfg = cfgAt(500);
    PracTracker tracker(cfg);
    MitigationVec out;
    // The last row of the last bank of the last rank: the far end of
    // the flat counter table.
    const int ch = cfg.channels - 1;
    const int rk = cfg.ranksPerChannel - 1;
    const int bk = cfg.banksPerRank() - 1;
    const int row = cfg.rowsPerBank - 1;
    const ActEvent far{ch, rk, bk, row, 0, 0};
    // write -> reset -> write -> reset: a stale count from the first
    // window would show as 14 in the second.
    for (int window = 0; window < 2; ++window) {
        for (int i = 0; i < 7; ++i) {
            tracker.onActivation(act(0, 0), out);
            tracker.onActivation(far, out);
        }
        tracker.onActivation(act(2, 777), out);
        EXPECT_EQ(tracker.counterOf(0, 0, 0, 0), 7u) << "window " << window;
        EXPECT_EQ(tracker.counterOf(ch, rk, bk, row), 7u);
        EXPECT_EQ(tracker.counterOf(0, 0, 2, 777), 1u);
        tracker.onRefreshWindow(0, out);
        EXPECT_EQ(tracker.counterOf(0, 0, 0, 0), 0u);
        EXPECT_EQ(tracker.counterOf(ch, rk, bk, row), 0u);
        EXPECT_EQ(tracker.counterOf(0, 0, 2, 777), 0u);
    }
}

TEST(BlockHammer, HammeredRowGetsThrottled)
{
    SysConfig cfg = cfgAt(500);
    BlockHammerTracker tracker(cfg);
    MitigationVec out;
    ActEvent e = act(4, 1000, 1000);
    EXPECT_EQ(tracker.throttleUntil(e), 0u); // Not blacklisted yet.
    for (int i = 0; i < tracker.blacklistThreshold() + 1; ++i) {
        e.now = 1000 + static_cast<Tick>(i) * 200;
        tracker.onActivation(e, out);
    }
    e.now += 200;
    EXPECT_GT(tracker.throttleUntil(e), e.now);
    EXPECT_GT(tracker.throttleEvents(), 0u);
}

TEST(BlockHammer, ThrottleDelayEnforcesWindowBudget)
{
    SysConfig cfg = cfgAt(500);
    BlockHammerTracker tracker(cfg);
    // A blacklisted row capped at one ACT per tREFW/NRH cannot exceed
    // NRH activations within the window.
    MitigationVec out;
    ActEvent e = act(4, 1000, 0);
    for (int i = 0; i < tracker.blacklistThreshold() + 1; ++i)
        tracker.onActivation(e, out);
    const Tick allowed = tracker.throttleUntil(e);
    EXPECT_GE(allowed, cfg.tREFW() / static_cast<Tick>(cfg.nRH));
}

TEST(BlockHammer, ColdRowsUnthrottled)
{
    SysConfig cfg = cfgAt(500);
    BlockHammerTracker tracker(cfg);
    MitigationVec out;
    for (int row = 0; row < 2000; ++row)
        tracker.onActivation(act(4, row), out);
    // Touching many rows once each must not blacklist (low per-entry
    // counts) at NRH=500.
    int throttled = 0;
    for (int row = 0; row < 2000; ++row)
        if (tracker.throttleUntil(act(4, row, 10)) > 10)
            ++throttled;
    EXPECT_LT(throttled, 50);
}

TEST(BlockHammer, EpochResetUnblacklists)
{
    SysConfig cfg = cfgAt(500);
    BlockHammerTracker tracker(cfg);
    MitigationVec out;
    ActEvent e = act(4, 1000, 0);
    for (int i = 0; i < tracker.blacklistThreshold() + 1; ++i)
        tracker.onActivation(e, out);
    ASSERT_GT(tracker.throttleUntil(e), 0u);
    tracker.onPeriodic(cfg.tREFW() / 2 + 1, out);
    ActEvent later = act(4, 1000, cfg.tREFW() / 2 + 10);
    EXPECT_EQ(tracker.throttleUntil(later), 0u);
}

} // namespace
} // namespace dapper
