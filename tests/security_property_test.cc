/**
 * @file
 * RowHammer security property tests: for every deterministic counting
 * tracker and for each adversarial activation pattern, drive the tracker
 * directly with an activation stream and assert that no victim row
 * accumulates N_RH disturbances within a refresh window (the paper's
 * Section II-C attack-success criterion).
 *
 * Damage is judged by the production GroundTruth checker, built from the
 * tracker-adjusted config as System builds it and fed every Mitigation
 * the tracker emits through GroundTruth::onMitigation. Only the memory
 * controller's timing is left out, so thousands of windows stay cheap.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include "src/rh/ground_truth.hh"
#include "src/rh/registry.hh"

namespace dapper {
namespace {

/** Adversarial activation streams at tracker granularity. */
enum class Pattern
{
    SingleRowHammer,   ///< One row, continuously.
    DoubleSided,       ///< Two aggressors around one victim.
    RefreshAttack16,   ///< The paper's 8-banks x 2-rows pattern.
    ManyRowRoundRobin, ///< 192 rows (the CoMeT attack shape).
    NewRowEveryAct,    ///< Ever-new rows (the ABACUS attack shape).
};

struct Case
{
    const char *tracker; ///< Registry name.
    Pattern pattern;
};

/** One activation of a pattern and the time to the next: tRC-paced
 *  single-bank patterns or tRRD-paced multi-bank ones. */
struct PatternAct
{
    int bank;
    int row;
    Tick step;
};

PatternAct
nthAct(Pattern pattern, std::uint64_t n, const SysConfig &cfg)
{
    switch (pattern) {
      case Pattern::SingleRowHammer: // Alternate rows to force ACTs.
        return {3, 1000 + static_cast<int>(n % 2) * 4, cfg.tRC()};
      case Pattern::DoubleSided: // Victim at 1001.
        return {3, 1000 + static_cast<int>(n % 2) * 2, cfg.tRC()};
      case Pattern::RefreshAttack16: {
        const int slot = static_cast<int>(n % 16);
        return {slot % 8, 32768 + (slot / 8) * 2, cfg.tRRDS()};
      }
      case Pattern::ManyRowRoundRobin: {
        const int slot = static_cast<int>(n % 192);
        return {slot % 32, 16384 + (slot / 32) * 64, cfg.tRRDS()};
      }
      case Pattern::NewRowEveryAct:
        return {static_cast<int>(n % 32),
                static_cast<int>((n / 32) % 65536), cfg.tRRDS()};
    }
    return {0, 0, cfg.tRC()};
}

/**
 * Run registered tracker @p name against @p pattern for @p windows
 * scaled refresh windows and return the GroundTruth that judged it. The
 * config is adjusted first (blast radius, command flavour), as System
 * does, and the deadlines follow System's cadence: onPeriodic every
 * max(1, tREFI / 4), then the window boundary every tREFW.
 */
GroundTruth
runPattern(const char *name, SysConfig cfg, Pattern pattern, int windows)
{
    const TrackerInfo &info = TrackerRegistry::instance().at(name);
    info.adjustConfig(cfg);
    const std::unique_ptr<Tracker> tracker = info.make(cfg, nullptr);
    GroundTruth gt(cfg);
    MitigationVec out;
    const auto applyOut = [&]() {
        for (const Mitigation &m : out)
            gt.onMitigation(m.channel, m);
        out.clear();
    };
    const Tick horizon = windows * cfg.tREFW();
    const Tick periodicStep = std::max<Tick>(1, cfg.tREFI() / 4);
    Tick nextPeriodic = periodicStep;
    Tick nextWindow = cfg.tREFW();
    Tick now = 0;
    for (std::uint64_t n = 0; now < horizon; ++n) {
        const PatternAct act = nthAct(pattern, n, cfg);
        gt.onActivation(0, 0, act.bank, act.row);
        // Respect throttling (BlockHammer): a throttled ACT is delayed,
        // which in this harness means it simply happens later.
        ActEvent e{0, 0, act.bank, act.row, now, 0};
        const Tick allowed = tracker->throttleUntil(e);
        if (allowed > now) {
            now = allowed;
            e.now = now;
        }
        tracker->onActivation(e, out);
        applyOut();

        if (now >= nextPeriodic) {
            nextPeriodic += periodicStep;
            tracker->onPeriodic(now, out);
            applyOut();
        }
        if (now >= nextWindow) {
            nextWindow += cfg.tREFW();
            tracker->onRefreshWindow(now, out);
            applyOut();
            gt.onWindowBoundary();
        }
        now += act.step;
    }
    return gt;
}

std::string
caseName(const ::testing::TestParamInfo<Case> &info)
{
    std::string name =
        TrackerRegistry::instance().at(info.param.tracker).displayName;
    for (auto &ch : name)
        if (!isalnum(static_cast<unsigned char>(ch)))
            ch = '_';
    switch (info.param.pattern) {
      case Pattern::SingleRowHammer: return name + "_single";
      case Pattern::DoubleSided: return name + "_double";
      case Pattern::RefreshAttack16: return name + "_refresh16";
      case Pattern::ManyRowRoundRobin: return name + "_rr192";
      case Pattern::NewRowEveryAct: return name + "_newrows";
    }
    return name;
}

class SecurityPropertyTest : public ::testing::TestWithParam<Case>
{
};

TEST_P(SecurityPropertyTest, NoVictimReachesThresholdWithinWindow)
{
    SysConfig cfg;
    cfg.nRH = 500;
    cfg.timeScale = 16.0;
    const Case param = GetParam();
    const GroundTruth gt = runPattern(param.tracker, cfg, param.pattern, 3);
    EXPECT_EQ(gt.violations(), 0u)
        << "max damage " << gt.maxDamageEver() << ", first at bank "
        << gt.firstViolation().bank << " row " << gt.firstViolation().row;
}

std::vector<Case>
allCases()
{
    std::vector<Case> cases;
    const char *const trackers[] = {
        "hydra",    "comet",    "abacus",       "graphene",
        "dapper-s", "dapper-h", "dapper-h-br2", "prac",
        "blockhammer",
    };
    const Pattern patterns[] = {
        Pattern::SingleRowHammer, Pattern::DoubleSided,
        Pattern::RefreshAttack16, Pattern::ManyRowRoundRobin,
        Pattern::NewRowEveryAct,
    };
    for (const char *t : trackers)
        for (Pattern p : patterns)
            cases.push_back({t, p});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(AllTrackers, SecurityPropertyTest,
                         ::testing::ValuesIn(allCases()), caseName);

/** N_RH sweep for the paper's own trackers. */
class DapperThresholdTest : public ::testing::TestWithParam<int>
{
};

TEST_P(DapperThresholdTest, DapperHSafeAcrossThresholds)
{
    SysConfig cfg;
    cfg.nRH = GetParam();
    cfg.timeScale = 16.0;
    const GroundTruth gt =
        runPattern("dapper-h", cfg, Pattern::RefreshAttack16, 2);
    EXPECT_EQ(gt.violations(), 0u) << "max damage " << gt.maxDamageEver();
}

INSTANTIATE_TEST_SUITE_P(Thresholds, DapperThresholdTest,
                         ::testing::Values(125, 250, 500, 1000, 2000,
                                           4000));

} // namespace
} // namespace dapper
