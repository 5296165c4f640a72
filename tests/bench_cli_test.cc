/**
 * @file
 * The bench command-line contract (bench/bench_util.hh): population()'s
 * resolution order and suitePopulation()'s trace rejection, --tracker /
 * --attack filtering against a bench's base scenario and crossed cell
 * lists, runGrid's innermost --seeds axis with the seedMeans()
 * reduction, and parse()'s rule that a flag a binary cannot honour
 * exits 2 instead of being ignored.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.hh"

namespace dapper {
namespace {

using namespace benchutil;
using ::testing::ExitedWithCode;

/** parse() over @p args, with argv[0] = "bench". */
Options
parseArgs(std::vector<std::string> args, unsigned accepted)
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return parse(static_cast<int>(argv.size()), argv.data(), accepted);
}

std::vector<std::string>
labels(const std::vector<ScenarioCell> &cells)
{
    std::vector<std::string> out;
    for (const ScenarioCell &cell : cells)
        out.push_back(cell.label);
    return out;
}

TEST(BenchPopulation, WorkloadBeatsFullBeatsFallback)
{
    const std::vector<std::string> fallback = {"429.mcf", "ycsb-a"};
    Options opt;
    EXPECT_EQ(population(opt, fallback), fallback);
    EXPECT_EQ(population(opt), suiteSubset());

    opt.full = true;
    EXPECT_EQ(population(opt, fallback), workloadsInSuite("All"));
    EXPECT_EQ(population(opt, fallback).size(), 57u);

    opt.workloadFilter = "456.hmmer";
    EXPECT_EQ(population(opt, fallback),
              std::vector<std::string>{"456.hmmer"});
    opt.full = false;
    EXPECT_EQ(population(opt, fallback),
              std::vector<std::string>{"456.hmmer"});
}

TEST(BenchPopulation, GeomeanBenchesRunATraceWorkload)
{
    // Benches that only geomean their cells take a trace --workload
    // like a synthetic one.
    Options opt;
    opt.workloadFilter = "trace-gc";
    EXPECT_EQ(population(opt, {"429.mcf"}),
              std::vector<std::string>{"trace-gc"});
    EXPECT_EQ(population(opt), std::vector<std::string>{"trace-gc"});
}

TEST(BenchPopulation, MetadataBenchesRejectATraceNamingTheirBinary)
{
    Options opt;
    EXPECT_EQ(suitePopulation(opt, "fig03_perf_attacks"), suiteSubset());
    opt.workloadFilter = "456.hmmer";
    EXPECT_EQ(suitePopulation(opt, "fig03_perf_attacks"),
              std::vector<std::string>{"456.hmmer"});
    // Suite and RBMPKI rows need findWorkload() metadata, which a
    // trace lacks: the bench exits 2 under its own name.
    opt.workloadFilter = "trace-gc";
    EXPECT_EXIT(suitePopulation(opt, "build/fig03_perf_attacks"),
                ExitedWithCode(2),
                "build/fig03_perf_attacks: --workload: this bench reads "
                "suite / RBMPKI metadata");
}

TEST(BenchFilterCells, PinnedTrackerPassesOnlyItsOwnName)
{
    // fig10's shape: the tracker lives on the base, cells vary attacks.
    const Scenario base = Scenario().tracker("dapper-h");
    const std::vector<ScenarioCell> attacks = {
        {"Stream", "", "streaming", {}},
        {"Refresh", "", "refresh", {}},
    };

    Options opt;
    opt.trackerFilter = "dapper-h";
    std::vector<ScenarioCell> cells = attacks;
    filterCells(opt, base, "bench", cells);
    EXPECT_EQ(labels(cells), labels(attacks));

    opt.attackFilter = "refresh";
    filterCells(opt, base, "bench", cells);
    EXPECT_EQ(labels(cells), std::vector<std::string>{"Refresh"});

    opt = Options{};
    opt.trackerFilter = "hydra";
    EXPECT_EXIT(
        {
            std::vector<ScenarioCell> copy = attacks;
            filterCells(opt, base, "bench", copy);
        },
        ExitedWithCode(2), "--tracker matches no table cell");
}

TEST(BenchFilterCells, Fig13AttackFilterKeepsTheAttackedHalf)
{
    const std::vector<ScenarioCell> allVariants = {
        {"h", "dapper-h", "", {}},
        {"br2", "dapper-h-br2", "", {}},
        {"drfmsb", "dapper-h-drfmsb", "", {}},
    };
    const std::vector<ScenarioCell> allHalves = {
        {"benign", "", "none", Baseline::NoAttack},
        {"attacked", "", "refresh", Baseline::SameAttack},
    };

    Options opt;
    opt.attackFilter = "refresh";
    std::vector<ScenarioCell> variants = allVariants;
    std::vector<ScenarioCell> halves = allHalves;
    filterCells(opt, Scenario(), "bench", variants, halves);
    EXPECT_EQ(labels(variants), labels(allVariants));
    EXPECT_EQ(labels(halves), std::vector<std::string>{"attacked"});

    opt = Options{};
    opt.trackerFilter = "dapper-h-br2";
    variants = allVariants;
    halves = allHalves;
    filterCells(opt, Scenario(), "bench", variants, halves);
    EXPECT_EQ(labels(variants), std::vector<std::string>{"br2"});
    EXPECT_EQ(labels(halves), labels(allHalves));

    // A list varies the attack, so the base's "none" pin does not
    // apply: an attack no half runs empties that list.
    opt = Options{};
    opt.attackFilter = "streaming";
    EXPECT_EXIT(
        {
            std::vector<ScenarioCell> v = allVariants;
            std::vector<ScenarioCell> h = allHalves;
            filterCells(opt, Scenario(), "bench", v, h);
        },
        ExitedWithCode(2), "--attack matches no table cell");
}

TEST(BenchSeedMeans, OneSeedIsTheNormalizedValueBitForBit)
{
    const double values[] = {0.1, 1.0 / 3.0, 0.9999999999999999,
                             2.5e-300, 0.7071067811865476};
    std::vector<ScenarioResult> rows(std::size(values));
    for (std::size_t i = 0; i < rows.size(); ++i)
        rows[i].normalized = values[i];
    const ResultTable table(rows);

    const std::vector<double> means = seedMeans(Options{}, table);
    const std::vector<double> norms = table.normalizedValues();
    ASSERT_EQ(means.size(), norms.size());
    for (std::size_t i = 0; i < means.size(); ++i)
        EXPECT_EQ(std::memcmp(&means[i], &norms[i], sizeof(double)), 0)
            << i;

    Options twoSeeds;
    twoSeeds.seeds = 2;
    std::vector<ScenarioResult> pairs(4);
    const double replicas[] = {0.5, 0.75, 1.0, 0.0};
    for (std::size_t i = 0; i < pairs.size(); ++i)
        pairs[i].normalized = replicas[i];
    EXPECT_EQ(seedMeans(twoSeeds, ResultTable(pairs)),
              (std::vector<double>{0.625, 0.5}));
}

TEST(BenchRunGrid, SeedsBecomeTheInnermostAxis)
{
    Options opt;
    opt.timeScale = 1024.0;
    opt.windows = 1;
    opt.jobs = 1;
    opt.seeds = 2;
    ScenarioGrid grid(baseScenario(opt));
    grid.workloads({"456.hmmer", "403.gcc"});
    const ResultTable table = runGrid(opt, grid, "bench");
    ASSERT_EQ(table.size(), 4u);
    const std::uint64_t seed = makeConfig(opt).seed;
    for (std::size_t i = 0; i < table.size(); ++i) {
        const Scenario &s = table.at(i).scenario;
        EXPECT_EQ(s.workloadName(), i < 2 ? "456.hmmer" : "403.gcc");
        EXPECT_EQ(s.configRef().seed, seed + i % 2);
    }
}

TEST(BenchParse, AcceptedFlagsTakeEffect)
{
    const Options opt =
        parseArgs({"--seeds", "3", "--fleet", "camp", "--shards", "2",
                   "--workload", "456.hmmer", "--full"},
                  kGridBench);
    EXPECT_EQ(opt.seeds, 3);
    EXPECT_EQ(opt.fleetDir, "camp");
    EXPECT_EQ(opt.shards, 2);
    EXPECT_EQ(opt.workloadFilter, "456.hmmer");
    EXPECT_TRUE(opt.full);
}

TEST(BenchParse, ComponentBenchRejectsGridFlags)
{
    EXPECT_EXIT(parseArgs({"--json", "x.json"}, kComponentBench),
                ExitedWithCode(2), "--json is not supported");
    EXPECT_EXIT(parseArgs({"--fleet", "camp"}, kComponentBench),
                ExitedWithCode(2), "--fleet is not supported");
    EXPECT_EXIT(parseArgs({"--seeds", "4"}, kComponentBench),
                ExitedWithCode(2), "--seeds is not supported");
    // The config flags still parse.
    EXPECT_EQ(parseArgs({"--nrh", "250"}, kComponentBench).nRH, 250);
}

TEST(BenchParse, EveryUnhonouredFlagExitsTwo)
{
    EXPECT_EXIT(parseArgs({"--repeat", "3"}, kGridBench),
                ExitedWithCode(2), "--repeat is not supported");
    EXPECT_EXIT(parseArgs({"--full"}, kGridBench & ~kFullFlag),
                ExitedWithCode(2), "--full is not supported");
    EXPECT_EXIT(parseArgs({"--seeds", "1"}, kGridBench & ~kSeedsFlag),
                ExitedWithCode(2), "--seeds is not supported");
    EXPECT_EXIT(parseArgs({"--scale", "4"}, 0), ExitedWithCode(2),
                "--scale is not supported");
    EXPECT_EXIT(parseArgs({"--bogus"}, kAllFlags), ExitedWithCode(2),
                "unknown flag --bogus");
}

} // namespace
} // namespace dapper
