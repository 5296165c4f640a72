/**
 * @file
 * Event-driven scheduler equivalence: System::run (next-event time
 * advance) must produce bit-identical RunResult stats to the
 * tick-by-tick oracle (ReferenceEngine::run, tests/oracle/) on the same
 * seed — including the *entire* exported stat dict (every component
 * counter and every tREFI probe series point), not just the typed
 * RunResult fields. This is the contract that lets every experiment and
 * test run on the fast engine — any divergence here is a scheduler bug,
 * not noise.
 *
 * Coverage: trackers with counter traffic (Hydra), LLC way reservation
 * (START), mitigation bursts (DAPPER-H), plus the unprotected system,
 * against no attack, a streaming attack, and a refresh-exploiting
 * attack; and the fig03, fig14 and micro_core grids plus a
 * resource-stalled cell at timeScale 1024.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "src/sim/experiment.hh"
#include "src/sim/parallel_runner.hh"
#include "tests/oracle/reference_engine.hh"

namespace dapper {
namespace {

SysConfig
smallCfg()
{
    SysConfig cfg;
    cfg.nRH = 500;
    cfg.timeScale = 32.0;
    return cfg;
}

void
expectIdentical(const RunResult &event, const RunResult &tick)
{
    ASSERT_EQ(event.coreIpc.size(), tick.coreIpc.size());
    for (std::size_t i = 0; i < event.coreIpc.size(); ++i)
        EXPECT_EQ(event.coreIpc[i], tick.coreIpc[i]) << "core " << i;
    EXPECT_EQ(event.benignIpcMean, tick.benignIpcMean);
    EXPECT_EQ(event.mitigations, tick.mitigations);
    EXPECT_EQ(event.bulkResets, tick.bulkResets);
    EXPECT_EQ(event.counterTraffic, tick.counterTraffic);
    EXPECT_EQ(event.activations, tick.activations);
    EXPECT_EQ(event.maxDamage, tick.maxDamage);
    EXPECT_EQ(event.rhViolations, tick.rhViolations);
    EXPECT_EQ(event.energyNj, tick.energyNj);

    // The full exported telemetry — every component counter and every
    // probe series point — must be bit-identical too, not just the
    // typed convenience fields above. Layout equality first (names in
    // the same order), then values, so a divergence names the exact
    // stat that broke.
    ASSERT_EQ(event.stats.size(), tick.stats.size());
    for (std::size_t i = 0; i < event.stats.entries().size(); ++i) {
        const StatEntry &e = event.stats.entries()[i];
        const StatEntry &t = tick.stats.entries()[i];
        ASSERT_EQ(e.name, t.name) << "stat layout diverged at " << i;
        EXPECT_TRUE(e == t) << "stat " << e.name << ": event "
                            << e.asDouble() << " vs tick "
                            << t.asDouble();
    }
    ASSERT_EQ(event.stats.series().size(), tick.stats.series().size());
    for (std::size_t i = 0; i < event.stats.series().size(); ++i) {
        const StatSeries &e = event.stats.series()[i];
        const StatSeries &t = tick.stats.series()[i];
        ASSERT_EQ(e.name, t.name) << "series layout diverged at " << i;
        EXPECT_TRUE(e == t) << "series " << e.name << " diverged";
    }
    EXPECT_TRUE(event.stats == tick.stats);
}

/** Run one configuration on both engines and compare the results. */
void
expectEnginesAgree(const SysConfig &cfg,
                   const std::vector<std::string> &workloads,
                   const std::string &attack, const std::string &tracker,
                   Tick horizon)
{
    const AttackInfo &a = AttackRegistry::instance().at(attack);
    const TrackerInfo &t = TrackerRegistry::instance().at(tracker);
    expectIdentical(runOnce(cfg, workloads, a, t, horizon),
                    runOnceReference(cfg, workloads, a, t, horizon));
}

class SchedulerEquivalence
    : public ::testing::TestWithParam<std::pair<const char *, const char *>>
{
};

TEST_P(SchedulerEquivalence, EventMatchesTickExactly)
{
    const auto [tracker, attack] = GetParam();
    expectEnginesAgree(smallCfg(), {"429.mcf"}, attack, tracker, 300000);
}

INSTANTIATE_TEST_SUITE_P(
    TrackersAndAttacks, SchedulerEquivalence,
    ::testing::Values(
        std::make_pair("none", "none"),
        std::make_pair("none", "refresh"),
        std::make_pair("hydra", "none"),
        std::make_pair("hydra", "hydra-rcc"),
        std::make_pair("start", "streaming"),
        std::make_pair("start", "start-stream"),
        std::make_pair("dapper-h", "streaming"),
        std::make_pair("dapper-h", "refresh"),
        // Paths that stress the issue memo / wake plumbing hardest:
        // activation throttling, probabilistic mitigation bursts, PRAC
        // ABO channel stalls, and bulk structure resets.
        std::make_pair("blockhammer", "none"),
        std::make_pair("para", "refresh"),
        std::make_pair("prac", "refresh"),
        std::make_pair("abacus", "abacus-spill")));

/** A compute-bound workload exercises the always-busy core fast path. */
TEST(SchedulerEquivalenceComputeBound, EventMatchesTickExactly)
{
    expectEnginesAgree(smallCfg(), {"456.hmmer"}, "none", "dapper-s",
                       200000);
}

/** Ultra-low threshold: dense throttling / mitigation blocking. */
TEST(SchedulerEquivalenceLowThreshold, EventMatchesTickExactly)
{
    SysConfig cfg = smallCfg();
    cfg.nRH = 125;
    expectEnginesAgree(cfg, {"429.mcf"}, "none", "blockhammer", 250000);
}

/** DTR trace replay must be engine-invariant like every generator: the
 *  checked-in GC trace under a tracked, attacked system. */
TEST(SchedulerEquivalenceTrace, TraceReplayMatchesAcrossEngines)
{
    expectEnginesAgree(smallCfg(), {"trace-gc"}, "streaming", "dapper-h",
                       300000);
}

/** Multi-program mixes (different trace per benign core + an attacker)
 *  must also be bit-identical across engines. */
TEST(SchedulerEquivalenceMultiprog, MixedTracesMatchAcrossEngines)
{
    expectEnginesAgree(smallCfg(),
                       {"trace-stream", "trace-ptrchase", "trace-stencil"},
                       "cache-thrash", "hydra", 300000);
}

/** Longer horizon crossing a tREFW window boundary with mitigations. */
TEST(SchedulerEquivalenceWindow, EventMatchesTickAcrossWindows)
{
    const SysConfig cfg = smallCfg();
    expectEnginesAgree(cfg, {"510.parest"}, "refresh", "comet",
                       cfg.tREFW() + cfg.tREFW() / 4);
}

/** The benches' base scenario at --scale 1024, where tREFI is shorter
 *  than tRC. */
Scenario
scaled(int windows)
{
    return Scenario().timeScale(1024.0).windows(windows);
}

/**
 * Compare every cell of @p grid, plus the NoAttack baseline the bench
 * divides it by: the cell's workload with no tracker and no attack,
 * once per workload under the first cell's config (Runner shares it
 * across an nRH sweep). Runs fan out across threads; each is seed-pure.
 */
void
expectGridAgrees(const ScenarioGrid &grid)
{
    std::vector<Scenario> runs = grid.expand();
    std::set<std::string> seen;
    for (const Scenario &cell : grid.expand())
        if (seen.insert(cell.workloadName()).second)
            runs.push_back(Scenario(cell).tracker("none").attack("none")
                               .label(cell.workloadName() + "/baseline"));
    const std::vector<RunResult> results =
        ParallelRunner().map(2 * runs.size(), [&](std::size_t i) {
            const Scenario &s = runs[i / 2];
            if (i % 2 == 0)
                return runOnce(s.configRef(), s.workloadList(),
                               s.attackInfo(), s.trackerInfo(),
                               s.effectiveHorizon());
            return runOnceReference(s.configRef(), s.workloadList(),
                                    s.attackInfo(), s.trackerInfo(),
                                    s.effectiveHorizon());
        });
    for (std::size_t k = 0; k < runs.size(); ++k) {
        SCOPED_TRACE(runs[k].labelText());
        expectIdentical(results[2 * k], results[2 * k + 1]);
    }
}

/** fig03_perf_attacks --windows 2: five Perf-Attack columns over the
 *  default population; two windows, so every tracker's tREFW reset
 *  runs. */
TEST(SchedulerEquivalenceScaled, Fig03GridMatchesCellByCell)
{
    ScenarioGrid grid(scaled(2));
    grid.workloads(benchutil::population(benchutil::Options{}))
        .cells({{"CacheThrash", "none", "cache-thrash", {}},
                {"Hydra", "hydra", "hydra-rcc", {}},
                {"START", "start", "start-stream", {}},
                {"ABACUS", "abacus", "abacus-spill", {}},
                {"CoMeT", "comet", "comet-rat", {}}});
    expectGridAgrees(grid);
}

/** fig14_blockhammer --windows 1: BlockHammer is the only built-in
 *  tracker with a throttle (throttleUntil re-queues). */
TEST(SchedulerEquivalenceScaled, Fig14GridMatchesCellByCell)
{
    ScenarioGrid grid(scaled(1));
    grid.nRH({125, 250, 500, 1000, 2000, 4000})
        .trackers({"blockhammer", "dapper-h", "dapper-h-drfmsb"})
        .workloads({"429.mcf", "510.parest", "ycsb-a"});
    expectGridAgrees(grid);
}

/** micro_core: the bubble spectrum of the batched-retire path,
 *  tracker- and attacker-free. */
TEST(SchedulerEquivalenceScaled, MicroCoreCellsMatch)
{
    ScenarioGrid grid(scaled(2));
    grid.workloads({"456.hmmer", "403.gcc", "429.mcf"});
    expectGridAgrees(grid);
}

/** Structural stalls: with one MSHR per core the shared LLC's 16 MSHRs
 *  run out under 429.mcf, so cores stall on CacheResult::Blocked and
 *  only a WakeHub broadcast wakes them; the streaming attacker adds
 *  bypass traffic to the same read queues. */
TEST(SchedulerEquivalenceScaled, ResourceStalledCoresMatch)
{
    ScenarioGrid grid(scaled(2).tweak([](SysConfig &c) { c.coreMshrs = 1; }));
    grid.workloads({"429.mcf"}).attacks({"streaming"});
    expectGridAgrees(grid);
}

} // namespace
} // namespace dapper
