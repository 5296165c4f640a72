/**
 * @file
 * SysConfig: derived geometry, time conversion, window scaling, and
 * validation.
 */

#include <gtest/gtest.h>

#include "src/common/config.hh"

namespace dapper {
namespace {

TEST(Config, DefaultsMatchPaperTableI)
{
    SysConfig cfg;
    cfg.validate();
    EXPECT_EQ(cfg.numCores, 4);
    EXPECT_EQ(cfg.llcBytes, 8ULL << 20);
    EXPECT_EQ(cfg.llcWays, 16);
    EXPECT_EQ(cfg.channels, 2);
    EXPECT_EQ(cfg.ranksPerChannel, 2);
    EXPECT_EQ(cfg.banksPerRank(), 32);
    EXPECT_EQ(cfg.rowsPerBank, 64 * 1024);
    EXPECT_EQ(cfg.rowBytes, 8192);
    EXPECT_EQ(cfg.totalBytes(), 64ULL << 30);
    EXPECT_EQ(cfg.rowsPerRank(), 2ULL << 20); // 2M-row randomized space.
    EXPECT_EQ(cfg.nM(), 250);
}

TEST(Config, TickConversion)
{
    SysConfig cfg;
    EXPECT_EQ(cfg.tRC(), nsToTicks(48.0));
    EXPECT_EQ(nsToTicks(48.0), 192u); // 48ns at 4GHz.
    EXPECT_EQ(nsToTicks(2.5), 10u);
    EXPECT_EQ(nsToTicks(0.0), 0u);
    EXPECT_DOUBLE_EQ(ticksToNs(192), 48.0);
}

TEST(Config, WindowScalingPreservesRefreshDutyCycle)
{
    SysConfig a;
    a.timeScale = 1.0;
    SysConfig b;
    b.timeScale = 16.0;
    const double dutyA =
        static_cast<double>(a.tRFC()) / static_cast<double>(a.tREFI());
    const double dutyB =
        static_cast<double>(b.tRFC()) / static_cast<double>(b.tREFI());
    EXPECT_NEAR(dutyA, dutyB, 0.01);
    EXPECT_NEAR(static_cast<double>(a.tREFW()) / b.tREFW(), 16.0, 0.1);
    // Per-command timing is NOT scaled.
    EXPECT_EQ(a.tRC(), b.tRC());
    EXPECT_EQ(a.tRRDS(), b.tRRDS());
}

TEST(Config, RefreshCountPerWindowInvariant)
{
    // 8192 auto-refresh commands per tREFW regardless of scaling.
    for (double scale : {1.0, 8.0, 16.0, 32.0}) {
        SysConfig cfg;
        cfg.timeScale = scale;
        const double refs = static_cast<double>(cfg.tREFW()) / cfg.tREFI();
        EXPECT_NEAR(refs, 8205.0, 25.0) << "scale " << scale;
    }
}

TEST(Config, ValidationRejectsBadGeometry)
{
    SysConfig cfg;
    cfg.channels = 3;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);

    cfg = SysConfig{};
    cfg.rowsPerBank = 1000;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);

    cfg = SysConfig{};
    cfg.rowGroupSize = 100;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);

    cfg = SysConfig{};
    cfg.timeScale = 0.5;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);

    cfg = SysConfig{};
    cfg.numCores = 0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);

    // A zero-tick burst would let two completions share a tick.
    cfg = SysConfig{};
    cfg.tBLns = 0.0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Config, DapperSResetDefaultsToWindow)
{
    SysConfig cfg;
    EXPECT_EQ(cfg.dapperSReset(), cfg.tREFW());
    cfg.dapperSResetUs = 12.0;
    EXPECT_LT(cfg.dapperSReset(), cfg.tREFW());
}

TEST(Config, MitigationCommandDurations)
{
    SysConfig cfg;
    EXPECT_EQ(cfg.vrrTicks(), nsToTicks(100.0));
    cfg.blastRadius = 2;
    EXPECT_EQ(cfg.vrrTicks(), nsToTicks(200.0));
    EXPECT_EQ(cfg.drfmSbTicks(), nsToTicks(240.0));
    EXPECT_EQ(cfg.rfmSbTicks(), nsToTicks(190.0));
}

} // namespace
} // namespace dapper
