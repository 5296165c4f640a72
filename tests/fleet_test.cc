/**
 * @file
 * dapper-fleet robustness tests: backoff/shard bookkeeping units, the
 * binary result codec, straight-through vs fleet bit-identical JSON,
 * and the fault-injection battery — workers SIGKILLed at arbitrary
 * cells, wedged cells reaped by the watchdog, always-failing cells
 * quarantined, graceful SIGINT drain, torn journal tails — each
 * followed by a resume that must complete the campaign without ever
 * executing a completed cell twice (proven from the journals).
 *
 * Simulation is substituted by FleetOptions::executor where the test
 * exercises the *coordinator* (fast, deterministic synthetic results);
 * the bit-identical test runs the real simulator on a tiny grid.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "src/common/journal.hh"
#include "src/sim/fleet/fleet.hh"

namespace dapper {
namespace {

namespace fs = std::filesystem;

class TempDir
{
  public:
    TempDir()
    {
        char name[] = "/tmp/dapper_fleet_test_XXXXXX";
        EXPECT_NE(::mkdtemp(name), nullptr);
        path_ = name;
    }

    ~TempDir() { fs::remove_all(path_); }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

SysConfig
fastCfg()
{
    SysConfig cfg;
    cfg.nRH = 500;
    cfg.timeScale = 64.0;
    return cfg;
}

/** A synthetic grid whose cells never reach the simulator (tests pair
 *  it with a synthetic executor). Six unique cells. */
ScenarioGrid
syntheticGrid()
{
    ScenarioGrid grid(
        Scenario().config(fastCfg()).windows(1).baseline(Baseline::Raw));
    grid.workloads({"w1", "w2", "w3"});
    grid.nRH({250, 500});
    return grid;
}

/** Deterministic function of the scenario only — so a merged table is
 *  reproducible no matter which worker/attempt produced each cell. */
ScenarioResult
syntheticResult(const Scenario &s)
{
    ScenarioResult r;
    r.scenario = s;
    const auto h = std::hash<std::string>{}(s.fingerprint());
    r.run.benignIpcMean =
        1.0 + static_cast<double>(h % 997) / 997.0;
    r.run.activations = h % 100000;
    r.run.mitigations = h % 321;
    r.run.coreIpc = {1.25, 0.5};
    r.run.stats.addU64("fleet.test.hash", h % 4096);
    r.run.stats.addF64("fleet.test.frac", 1.0 / 3.0);
    r.run.stats.addSeries("series.test", {0.25, 0.5, 0.75});
    r.baselineIpc = 2.0;
    r.normalized = r.run.benignIpcMean / 2.0;
    return r;
}

std::string
markerPath(const std::string &dir, const std::string &fingerprint)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%zx",
                  std::hash<std::string>{}(fingerprint));
    return dir + "/marker_" + buf;
}

/** True exactly once per (dir, fingerprint) — across processes, so a
 *  respawned worker sees the attempt count of its killed predecessor. */
bool
firstTimeFor(const std::string &dir, const std::string &fingerprint)
{
    const int fd = ::open(markerPath(dir, fingerprint).c_str(),
                          O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd < 0)
        return false;
    ::close(fd);
    return true;
}

FleetOptions
fastOptions(const std::string &dir)
{
    FleetOptions opt;
    opt.dir = dir;
    opt.shards = 2;
    opt.backoffBaseSec = 0.01;
    opt.backoffCapSec = 0.05;
    opt.executor = [](Runner &, const Scenario &s) {
        return syntheticResult(s);
    };
    return opt;
}

/** Result-record fingerprints per shard journal, in append order. */
std::map<std::string, int>
resultCounts(const std::string &dir)
{
    std::map<std::string, int> counts;
    for (const auto &entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("shard_", 0) != 0)
            continue;
        const JournalScan scan = scanJournalFile(entry.path().string());
        for (const JournalRecord &record : scan.records)
            if (record.type == static_cast<std::uint8_t>(
                                   FleetRecord::Result))
                ++counts[decodeFleetResult(record.payload).fingerprint];
    }
    return counts;
}

std::string
renderJson(const ResultTable &table)
{
    char name[] = "/tmp/dapper_fleet_json_XXXXXX";
    const int fd = ::mkstemp(name);
    EXPECT_GE(fd, 0);
    std::FILE *out = ::fdopen(fd, "w");
    table.writeJson(out, "fleet_test");
    std::fclose(out);
    std::string bytes;
    std::FILE *in = std::fopen(name, "rb");
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0)
        bytes.append(buf, n);
    std::fclose(in);
    std::remove(name);
    return bytes;
}

TEST(FleetUnits, BackoffIsCappedExponential)
{
    EXPECT_EQ(fleetBackoffSeconds(0, 0.25, 8.0), 0.0);
    EXPECT_EQ(fleetBackoffSeconds(1, 0.25, 8.0), 0.25);
    EXPECT_EQ(fleetBackoffSeconds(2, 0.25, 8.0), 0.5);
    EXPECT_EQ(fleetBackoffSeconds(3, 0.25, 8.0), 1.0);
    EXPECT_EQ(fleetBackoffSeconds(6, 0.25, 8.0), 8.0);  // Capped.
    EXPECT_EQ(fleetBackoffSeconds(60, 0.25, 8.0), 8.0); // No overflow.
}

TEST(FleetUnits, ShardAssignmentIsStableAndInRange)
{
    const std::size_t a = fleetShardOf("cell|alpha", 7);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(fleetShardOf("cell|alpha", 7), a);
    EXPECT_LT(a, 7u);
    // All cells of a single-shard campaign land on shard 0.
    EXPECT_EQ(fleetShardOf("cell|anything", 1), 0u);
}

TEST(FleetCodec, ResultRoundTripIsLossless)
{
    const Scenario s = syntheticGrid().expand().front();
    const ScenarioResult row = syntheticResult(s);
    const std::string payload = encodeFleetResult(row, s.fingerprint());
    const FleetCellResult back = decodeFleetResult(payload);

    EXPECT_EQ(back.fingerprint, s.fingerprint());
    EXPECT_EQ(back.label, s.labelText());
    EXPECT_EQ(back.run.coreIpc, row.run.coreIpc);
    EXPECT_EQ(back.run.benignIpcMean, row.run.benignIpcMean);
    EXPECT_EQ(back.run.activations, row.run.activations);
    EXPECT_EQ(back.run.mitigations, row.run.mitigations);
    EXPECT_TRUE(back.run.stats == row.run.stats); // Bit-exact doubles.
    EXPECT_EQ(back.baselineIpc, row.baselineIpc);
    EXPECT_EQ(back.normalized, row.normalized);

    EXPECT_THROW(decodeFleetResult(payload.substr(0, payload.size() / 2)),
                 std::runtime_error);
}

TEST(Fleet, MergedJsonIsBitIdenticalToStraightThroughRun)
{
    // Real simulator on a tiny grid: the fleet merge must render the
    // exact bytes a single-process Runner produces.
    ScenarioGrid grid(Scenario()
                          .config(fastCfg())
                          .windows(1)
                          .baseline(Baseline::NoAttack));
    grid.workloads({"429.mcf", "ycsb-a"});

    Runner runner(1);
    const std::string straight = renderJson(runner.run(grid));

    TempDir dir;
    FleetOptions opt;
    opt.dir = dir.path();
    opt.shards = 2;
    FleetCampaign campaign(opt);
    const FleetReport report = campaign.run(grid);
    ASSERT_TRUE(report.complete());
    EXPECT_EQ(report.executed, 2u);
    EXPECT_EQ(renderJson(report.table), straight);
    EXPECT_TRUE(fs::exists(dir.path() + "/manifest.json"));
}

TEST(Fleet, SigkilledWorkersAreRetriedAndNoCellRunsTwice)
{
    TempDir dir;
    TempDir markers;
    const std::vector<Scenario> cells = syntheticGrid().expand();

    // Kill an arbitrary-but-deterministic half of the cells on their
    // first attempt, at the point the cell is executing.
    std::set<std::string> killSet;
    for (std::size_t i = 0; i < cells.size(); i += 2)
        killSet.insert(cells[i].fingerprint());

    FleetOptions opt = fastOptions(dir.path());
    const std::string markerDir = markers.path();
    opt.executor = [markerDir, killSet](Runner &, const Scenario &s) {
        const std::string fp = s.fingerprint();
        if (killSet.count(fp) != 0 && firstTimeFor(markerDir, fp))
            ::raise(SIGKILL); // Abrupt worker death, no cleanup.
        return syntheticResult(s);
    };

    FleetCampaign campaign(opt);
    const FleetReport report = campaign.run(syntheticGrid());
    EXPECT_TRUE(report.complete());
    EXPECT_EQ(report.completed, cells.size());
    EXPECT_EQ(report.crashes, killSet.size());
    EXPECT_GE(report.retries, killSet.size());
    EXPECT_EQ(report.duplicateResults, 0u);
    EXPECT_TRUE(report.quarantined.empty());

    // The journals prove the no-cell-twice contract: exactly one
    // result record per fingerprint across all shards.
    const auto counts = resultCounts(dir.path());
    EXPECT_EQ(counts.size(), cells.size());
    for (const auto &[fp, count] : counts)
        EXPECT_EQ(count, 1) << fp;

    // And the merged table matches a run that never saw a failure.
    TempDir cleanDir;
    FleetCampaign clean(fastOptions(cleanDir.path()));
    EXPECT_EQ(renderJson(report.table),
              renderJson(clean.run(syntheticGrid()).table));
}

TEST(Fleet, ResumeSkipsEveryCompletedCell)
{
    TempDir dir;
    FleetCampaign first(fastOptions(dir.path()));
    const FleetReport r1 = first.run(syntheticGrid());
    ASSERT_TRUE(r1.complete());
    EXPECT_EQ(r1.executed, 6u);
    EXPECT_EQ(r1.resumed, 0u);

    // Second run over the same directory: all journal, no execution.
    FleetOptions opt = fastOptions(dir.path());
    opt.executor = [](Runner &, const Scenario &) -> ScenarioResult {
        []() { FAIL() << "resume executed a completed cell"; }();
        return {};
    };
    FleetCampaign second(opt);
    const FleetReport r2 = second.run(syntheticGrid());
    EXPECT_TRUE(r2.complete());
    EXPECT_EQ(r2.resumed, 6u);
    EXPECT_EQ(r2.executed, 0u);
    EXPECT_EQ(renderJson(r1.table), renderJson(r2.table));
}

TEST(Fleet, TornJournalTailIsDiscardedOnResume)
{
    TempDir dir;
    FleetCampaign first(fastOptions(dir.path()));
    ASSERT_TRUE(first.run(syntheticGrid()).complete());

    // Simulate a SIGKILL mid-append: a half-written record at the tail
    // of one shard journal.
    const std::string victim = dir.path() + "/shard_0000.journal";
    const std::string torn =
        encodeJournalRecord(static_cast<std::uint8_t>(FleetRecord::Result),
                            "not a complete record");
    std::FILE *out = std::fopen(victim.c_str(), "ab");
    ASSERT_NE(out, nullptr);
    std::fwrite(torn.data(), 1, torn.size() / 2, out);
    std::fclose(out);

    FleetCampaign second(fastOptions(dir.path()));
    const FleetReport report = second.run(syntheticGrid());
    EXPECT_TRUE(report.complete());
    EXPECT_EQ(report.resumed, 6u);
    EXPECT_EQ(report.executed, 0u);
    EXPECT_EQ(report.duplicateResults, 0u);
    // The recovery truncated the tail: the journal scans clean now.
    EXPECT_FALSE(scanJournalFile(victim).torn);
}

TEST(Fleet, AlwaysCrashingCellIsQuarantinedNotFatal)
{
    TempDir dir;
    const std::vector<Scenario> cells = syntheticGrid().expand();
    const std::string victimFp = cells[3].fingerprint();

    FleetOptions opt = fastOptions(dir.path());
    opt.maxAttempts = 2;
    opt.executor = [victimFp](Runner &, const Scenario &s) {
        if (s.fingerprint() == victimFp)
            throw std::runtime_error("synthetic permanent failure");
        return syntheticResult(s);
    };
    FleetCampaign campaign(opt);
    const FleetReport report = campaign.run(syntheticGrid());

    EXPECT_FALSE(report.complete());
    EXPECT_EQ(report.completed, cells.size() - 1);
    ASSERT_EQ(report.quarantined.size(), 1u);
    EXPECT_EQ(report.quarantined[0].fingerprint, victimFp);
    EXPECT_EQ(report.quarantined[0].attempts, 2u);
    EXPECT_NE(report.quarantined[0].lastError.find("permanent failure"),
              std::string::npos);
    EXPECT_EQ(report.crashes, 2u);
    // The quarantined cell is still *in* the merged table — as an
    // explicit gap row — so the grid keeps its shape and renderers can
    // show "--"/null instead of silently dropping the cell.
    ASSERT_EQ(report.table.size(), cells.size());
    std::size_t gaps = 0;
    for (const ScenarioResult &row : report.table.rows()) {
        if (!row.quarantined)
            continue;
        ++gaps;
        EXPECT_EQ(row.scenario.fingerprint(), victimFp);
        EXPECT_NE(row.quarantineError.find("permanent failure"),
                  std::string::npos);
    }
    EXPECT_EQ(gaps, 1u);
    EXPECT_TRUE(report.accounted());

    // Quarantine persists across a resume: the cell is not retried.
    FleetCampaign again(fastOptions(dir.path()));
    const FleetReport r2 = again.run(syntheticGrid());
    EXPECT_FALSE(r2.complete());
    EXPECT_EQ(r2.executed, 0u);
    EXPECT_EQ(r2.crashes, 0u);
    ASSERT_EQ(r2.quarantined.size(), 1u);
    EXPECT_EQ(r2.quarantined[0].fingerprint, victimFp);
}

TEST(Fleet, WatchdogKillsWedgedCellThenRetrySucceeds)
{
    TempDir dir;
    TempDir markers;
    const std::vector<Scenario> cells = syntheticGrid().expand();
    const std::string victimFp = cells[1].fingerprint();

    FleetOptions opt = fastOptions(dir.path());
    opt.watchdogSec = 0.3;
    const std::string markerDir = markers.path();
    opt.executor = [markerDir, victimFp](Runner &, const Scenario &s) {
        if (s.fingerprint() == victimFp &&
            firstTimeFor(markerDir, victimFp))
            for (;;) // Wedge: only the watchdog can end this attempt.
                ::usleep(50000);
        return syntheticResult(s);
    };
    FleetCampaign campaign(opt);
    const FleetReport report = campaign.run(syntheticGrid());

    EXPECT_TRUE(report.complete());
    EXPECT_EQ(report.timeouts, 1u);
    EXPECT_GE(report.retries, 1u);
    EXPECT_TRUE(report.quarantined.empty());
    const auto counts = resultCounts(dir.path());
    EXPECT_EQ(counts.at(victimFp), 1);
}

TEST(Fleet, SigintDrainsGracefullyAndResumeFinishes)
{
    TempDir dir;
    FleetOptions opt = fastOptions(dir.path());
    opt.executor = [](Runner &, const Scenario &s) {
        ::usleep(200000); // Slow cells so the signal lands mid-campaign.
        return syntheticResult(s);
    };

    std::thread interrupter([] {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        ::kill(::getpid(), SIGINT);
    });
    FleetCampaign campaign(opt);
    const FleetReport r1 = campaign.run(syntheticGrid());
    interrupter.join();

    EXPECT_TRUE(r1.drained);
    EXPECT_FALSE(r1.complete()); // 6 slow cells cannot all finish.
    EXPECT_EQ(r1.crashes, 0u);   // Drain is not a failure mode.
    // Every journaled cell is a complete record (in-flight cells were
    // allowed to finish; nothing was torn).
    for (const auto &[fp, count] : resultCounts(dir.path()))
        EXPECT_EQ(count, 1) << fp;

    FleetCampaign second(fastOptions(dir.path()));
    const FleetReport r2 = second.run(syntheticGrid());
    EXPECT_TRUE(r2.complete());
    EXPECT_EQ(r2.resumed, r1.completed);
    EXPECT_EQ(r2.executed, 6u - r1.completed);
    EXPECT_EQ(r2.duplicateResults, 0u);
}

TEST(Fleet, DifferentGridInSameDirectoryIsRejected)
{
    TempDir dir;
    FleetCampaign first(fastOptions(dir.path()));
    ASSERT_TRUE(first.run(syntheticGrid()).complete());

    ScenarioGrid other(
        Scenario().config(fastCfg()).windows(1).baseline(Baseline::Raw));
    other.workloads({"different"});
    FleetCampaign second(fastOptions(dir.path()));
    EXPECT_THROW(second.run(other), std::runtime_error);
}

TEST(Fleet, JournalOfAnotherFormatVersionIsRejected)
{
    // A Header as encodeHeader writes it, but from a future format.
    TempDir dir;
    const std::string journal = dir.path() + "/shard_0000.journal";
    ByteWriter header;
    header.putU32(99);
    header.putU64(0);
    header.putU32(0);
    {
        JournalWriter writer;
        writer.open(journal);
        writer.append(static_cast<std::uint8_t>(FleetRecord::Header),
                      header.take());
    }
    FleetCampaign campaign(fastOptions(dir.path()));
    try {
        campaign.run(syntheticGrid());
        FAIL() << "a version-99 journal was resumed";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(journal), std::string::npos) << what;
        EXPECT_NE(what.find("version 99"), std::string::npos) << what;
        EXPECT_NE(what.find("version 1"), std::string::npos) << what;
    }
}

} // namespace
} // namespace dapper
