/**
 * @file
 * Ground-truth RowHammer model tests: neighbor damage accounting,
 * refresh clearing at every granularity, window scoping, and violation
 * detection.
 */

#include <gtest/gtest.h>

#include "src/common/rng.hh"
#include "src/rh/ground_truth.hh"
#include "tests/oracle/ground_truth_dense.hh"

namespace dapper {
namespace {

SysConfig
smallCfg()
{
    SysConfig cfg;
    cfg.nRH = 100;
    return cfg;
}

TEST(GroundTruth, NeighborsAccumulateDamage)
{
    GroundTruth gt(smallCfg());
    for (int i = 0; i < 10; ++i)
        gt.onActivation(0, 0, 0, 500);
    EXPECT_EQ(gt.damageOf(0, 0, 0, 499), 10u);
    EXPECT_EQ(gt.damageOf(0, 0, 0, 501), 10u);
    EXPECT_EQ(gt.damageOf(0, 0, 0, 500), 0u);
    EXPECT_EQ(gt.maxDamageEver(), 10u);
    EXPECT_EQ(gt.violations(), 0u);
}

TEST(GroundTruth, EdgeRowsDoNotWrap)
{
    GroundTruth gt(smallCfg());
    gt.onActivation(0, 0, 0, 0);
    gt.onActivation(0, 0, 0, 65535);
    EXPECT_EQ(gt.damageOf(0, 0, 0, 1), 1u);
    EXPECT_EQ(gt.damageOf(0, 0, 0, 65534), 1u);
}

TEST(GroundTruth, VictimRefreshClearsBlastRadius)
{
    GroundTruth gt(smallCfg());
    for (int i = 0; i < 50; ++i) {
        gt.onActivation(0, 0, 0, 500);
        gt.onActivation(0, 0, 0, 503);
    }
    gt.onMitigation(0, {Mitigation::Kind::VrrRow, 0, 0, 0, 500}); // BR1.
    EXPECT_EQ(gt.damageOf(0, 0, 0, 499), 0u);
    EXPECT_EQ(gt.damageOf(0, 0, 0, 501), 0u);
    EXPECT_EQ(gt.damageOf(0, 0, 0, 502), 50u); // Other aggressor's victim.

    // DRFMsb refreshes at least two rows each side: 501..505.
    gt.onMitigation(0, {Mitigation::Kind::DrfmSbRow, 0, 0, 0, 503});
    EXPECT_EQ(gt.damageOf(0, 0, 0, 502), 0u);
    EXPECT_EQ(gt.damageOf(0, 0, 0, 504), 0u);
}

TEST(GroundTruth, ViolationDetectedAtThreshold)
{
    GroundTruth gt(smallCfg());
    for (int i = 0; i < 99; ++i)
        gt.onActivation(0, 1, 3, 1000);
    EXPECT_EQ(gt.violations(), 0u);
    gt.onActivation(0, 1, 3, 1000);
    EXPECT_EQ(gt.violations(), 2u); // Both neighbors crossed together.
    EXPECT_EQ(gt.firstViolation().channel, 0);
    EXPECT_EQ(gt.firstViolation().rank, 1);
    EXPECT_EQ(gt.firstViolation().bank, 3);
    EXPECT_EQ(gt.firstViolation().row, 999);
}

TEST(GroundTruth, DoubleSidedSumsOnSharedVictim)
{
    GroundTruth gt(smallCfg());
    for (int i = 0; i < 30; ++i) {
        gt.onActivation(0, 0, 0, 500);
        gt.onActivation(0, 0, 0, 502);
    }
    EXPECT_EQ(gt.damageOf(0, 0, 0, 501), 60u); // Both sides.
}

TEST(GroundTruth, BulkRefreshClearsRank)
{
    GroundTruth gt(smallCfg());
    gt.onActivation(0, 0, 5, 100);
    gt.onActivation(0, 1, 5, 100);
    gt.onMitigation(0, {Mitigation::Kind::BulkRank, 0, 0, 0, 0});
    EXPECT_EQ(gt.damageOf(0, 0, 5, 101), 0u);
    EXPECT_EQ(gt.damageOf(0, 1, 5, 101), 1u); // Other rank untouched.
    gt.onMitigation(0, {Mitigation::Kind::BulkChannel, 0, 0, 0, 0});
    EXPECT_EQ(gt.damageOf(0, 1, 5, 101), 0u);
}

TEST(GroundTruth, WindowBoundaryScopesDamage)
{
    GroundTruth gt(smallCfg());
    for (int i = 0; i < 80; ++i)
        gt.onActivation(0, 0, 0, 500);
    gt.onWindowBoundary();
    EXPECT_EQ(gt.damageOf(0, 0, 0, 501), 0u);
    for (int i = 0; i < 80; ++i)
        gt.onActivation(0, 0, 0, 500);
    // 160 total activations but never >= 100 within one window.
    EXPECT_EQ(gt.violations(), 0u);
}

TEST(GroundTruth, AutoRefreshSweepsTheWholeBank)
{
    SysConfig cfg = smallCfg();
    GroundTruth gt(cfg);
    gt.onActivation(0, 0, 0, 4); // Damages rows 3 and 5 (slice 0 covers 0-7).
    gt.onAutoRefresh(0, 0);
    EXPECT_EQ(gt.damageOf(0, 0, 0, 3), 0u);
    EXPECT_EQ(gt.damageOf(0, 0, 0, 5), 0u);
    // 8192 slices cover all 64K rows.
    gt.onActivation(0, 0, 0, 64);
    for (int i = 0; i < 8191; ++i)
        gt.onAutoRefresh(0, 0);
    EXPECT_EQ(gt.damageOf(0, 0, 0, 63), 0u);
    EXPECT_EQ(gt.damageOf(0, 0, 0, 65), 0u);
}

TEST(GroundTruth, ActivationCountTracked)
{
    GroundTruth gt(smallCfg());
    for (int i = 0; i < 7; ++i)
        gt.onActivation(0, 0, 0, 10);
    EXPECT_EQ(gt.activations(), 7u);
}

// Regression: with rowsPerBank not a multiple of the slice size, the
// truncating slice count (rowsPerBank / sliceRows) left the tail rows
// outside the auto-refresh rotation forever — phantom damage. The slice
// count must round up (last slice short) so a full rotation covers
// every row.
TEST(GroundTruth, AutoRefreshCoversTailRowsWithNonDivisibleRowCount)
{
    SysConfig cfg = smallCfg();
    cfg.rowsPerBank = 3 * 8192 + 1; // sliceRows = 3, 1 tail row.
    GroundTruth gt(cfg);
    ASSERT_EQ(gt.sliceRows(), 3);
    ASSERT_EQ(gt.sliceCount(), 8193); // ceil, not 8192.

    const int tail = cfg.rowsPerBank - 1; // Row 24576: in no full slice.
    gt.onActivation(0, 0, 0, tail - 1);
    ASSERT_EQ(gt.damageOf(0, 0, 0, tail), 1u);

    // One full rotation refreshes every row, including the short last
    // slice (the truncating count skipped it and wrapped early).
    for (int i = 0; i < gt.sliceCount(); ++i)
        gt.onAutoRefresh(0, 0);
    EXPECT_EQ(gt.damageOf(0, 0, 0, tail), 0u);
    EXPECT_EQ(gt.damageOf(0, 0, 0, tail - 2), 0u);
    for (int row = 0; row < cfg.rowsPerBank; ++row)
        ASSERT_EQ(gt.damageOf(0, 0, 0, row), 0u) << "row " << row;
}

// Differential: the epoch-stamped model must be observation-equivalent
// to the dense reference (tests/oracle/ground_truth_dense.hh) under
// randomized interleavings of every event type, including a
// non-divisible row count that exercises the short last slice. The
// epoch model takes refreshes as tracker Mitigations of every kind, at
// blast radii 1-3; the dense model takes the primitive refresh each
// kind implies, written out here independently of victimRadius().
TEST(GroundTruth, MatchesDenseReferenceUnderRandomInterleavings)
{
    SysConfig cfg;
    cfg.nRH = 16;
    cfg.channels = 2;
    cfg.ranksPerChannel = 2;
    cfg.bankGroups = 2;
    cfg.banksPerGroup = 2;
    const int rowCounts[] = {4096, 3 * 8192 + 1};
    using Kind = Mitigation::Kind;
    // Bulk kinds are drawn separately and rarely (with window boundaries,
    // about one per 5000 ops), so victim damage builds up between them.
    constexpr Kind kRowOrCounter[] = {Kind::VrrRow,      Kind::DrfmSbRow,
                                      Kind::RfmSb,       Kind::AboRfm,
                                      Kind::CounterRead, Kind::CounterWrite};

    for (int run = 0; run < 6; ++run) {
        const int rows = rowCounts[run / 3];
        const int br = 1 + run % 3;
        SCOPED_TRACE(testing::Message() << "rows " << rows << " BR " << br);
        cfg.rowsPerBank = rows;
        cfg.blastRadius = br;
        GroundTruth epoch(cfg);
        DenseGroundTruth dense(cfg);
        ASSERT_EQ(epoch.sliceRows(), dense.sliceRows());
        ASSERT_EQ(epoch.sliceCount(), dense.sliceCount());

        Rng rng(0xd1fful + static_cast<unsigned>(rows * 4 + br));
        // A few hot aggressors per bank drive damage toward nRH; the
        // rest is background noise across the whole bank.
        const int banks = cfg.banksPerRank();
        auto randomRow = [&]() {
            if (rng.chance(0.7))
                return 100 + static_cast<int>(rng.below(8)) * 7;
            return static_cast<int>(rng.below(
                static_cast<std::uint64_t>(rows)));
        };
        // The hot aggressors and every victim within distance 3 of one.
        auto hotRegionRow = [&]() {
            return 97 + static_cast<int>(rng.below(56));
        };

        const auto mitigate = [&](const Mitigation &m) {
            epoch.onMitigation(m.channel, m);
            if (m.kind == Kind::BulkRank)
                dense.onBulkRankRefresh(m.channel, m.rank);
            else if (m.kind == Kind::BulkChannel)
                dense.onBulkChannelRefresh(m.channel);
            else if (m.kind == Kind::DrfmSbRow)
                dense.onVictimRefresh(m.channel, m.rank, m.bank, m.row,
                                      br < 2 ? 2 : br);
            else if (m.kind != Kind::CounterRead &&
                     m.kind != Kind::CounterWrite)
                dense.onVictimRefresh(m.channel, m.rank, m.bank, m.row, br);
        };

        for (int op = 0; op < 60000; ++op) {
            const int c = static_cast<int>(rng.below(
                static_cast<std::uint64_t>(cfg.channels)));
            const int r = static_cast<int>(rng.below(
                static_cast<std::uint64_t>(cfg.ranksPerChannel)));
            const int b = static_cast<int>(
                rng.below(static_cast<std::uint64_t>(banks)));
            const double dice = rng.uniform();
            if (dice < 0.80) {
                const int row = randomRow();
                epoch.onActivation(c, r, b, row);
                dense.onActivation(c, r, b, row);
            } else if (dice < 0.88) {
                // Mostly aimed across the hot region, so victims at
                // every distance up to 3 carry damage.
                const int row =
                    rng.chance(0.7) ? hotRegionRow() : randomRow();
                mitigate({kRowOrCounter[rng.below(6)], c, r, b, row});
            } else if (dice < 0.8804) {
                mitigate({rng.chance(0.5) ? Kind::BulkRank
                                          : Kind::BulkChannel,
                          c, r, b, 0});
            } else if (dice < 0.9998) {
                epoch.onAutoRefresh(c, r);
                dense.onAutoRefresh(c, r);
            } else {
                epoch.onWindowBoundary();
                dense.onWindowBoundary();
            }

            if (op % 977 == 0) {
                ASSERT_EQ(epoch.violations(), dense.violations())
                    << "op " << op;
                ASSERT_EQ(epoch.maxDamageEver(), dense.maxDamageEver())
                    << "op " << op;
                for (int probe = 0; probe < 32; ++probe) {
                    const int pr =
                        rng.chance(0.5) ? hotRegionRow() : randomRow();
                    ASSERT_EQ(epoch.damageOf(c, r, b, pr),
                              dense.damageOf(c, r, b, pr))
                        << "op " << op << " row " << pr;
                }
            }
        }

        // Full-state sweep at the end.
        EXPECT_EQ(epoch.activations(), dense.activations());
        EXPECT_EQ(epoch.violations(), dense.violations());
        EXPECT_EQ(epoch.maxDamageEver(), dense.maxDamageEver());
        EXPECT_EQ(epoch.firstViolation().channel,
                  dense.firstViolation().channel);
        EXPECT_EQ(epoch.firstViolation().rank,
                  dense.firstViolation().rank);
        EXPECT_EQ(epoch.firstViolation().bank,
                  dense.firstViolation().bank);
        EXPECT_EQ(epoch.firstViolation().row, dense.firstViolation().row);
        for (int c = 0; c < cfg.channels; ++c)
            for (int r = 0; r < cfg.ranksPerChannel; ++r)
                for (int b = 0; b < banks; ++b)
                    for (int row = 0; row < rows; ++row)
                        ASSERT_EQ(epoch.damageOf(c, r, b, row),
                                  dense.damageOf(c, r, b, row))
                            << c << "/" << r << "/" << b << "/" << row;
    }
}

} // namespace
} // namespace dapper
