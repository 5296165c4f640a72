/**
 * @file
 * Multi-program scenarios: each row runs a *different* DTR trace (or
 * synthetic workload) per benign core — "trace-gc+trace-stencil+
 * trace-ptrchase" means core 0 replays the GC trace, core 1 the
 * stencil, core 2 the pointer chase — while the attacker occupies the
 * last core. Columns compare no-defense attack impact against tracked
 * configurations, normalized to the same mix running attack-free.
 *
 * Workload mixes resolve through WorkloadRegistry, so rows mix trace
 * replay and synthetic generators freely; --workload NAME collapses the
 * table to the homogeneous mix of one registered workload.
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace dapper;
    using namespace dapper::benchutil;

    // The mixes are this bench's own population: --workload replaces
    // them, and --full (the 57 synthetic workloads) does not apply.
    const Options opt = parse(argc, argv, kGridBench & ~kFullFlag);
    printHeader("Multi-program trace mixes under attack",
                makeConfig(opt));

    const Scenario base = baseScenario(opt).baseline(Baseline::NoAttack);
    std::vector<ScenarioCell> columns = {
        {"CacheThrash", "none", "cache-thrash", {}},
        {"Streaming", "none", "streaming", {}},
        {"Hydra", "hydra", "hydra-rcc", {}},
        {"DAPPER-H", "dapper-h", "streaming", {}},
    };
    filterCells(opt, base, argv[0], columns);

    std::vector<std::vector<std::string>> mixes;
    if (!opt.workloadFilter.empty()) {
        mixes.push_back({opt.workloadFilter});
    } else {
        mixes = {
            {"trace-gc", "trace-stencil", "trace-ptrchase"},
            {"trace-stream", "trace-gc", "trace-stencil"},
            {"trace-ptrchase", "429.mcf", "trace-stream"},
            {"trace-gc"},
            {"trace-stream"},
        };
    }

    ScenarioGrid grid(base);
    grid.workloadSets(mixes).cells(columns);
    const ResultTable table = runGrid(opt, grid, argv[0]);
    const auto sums =
        table.seedSummaries(static_cast<std::size_t>(opt.seeds));

    std::size_t nameWidth = 12;
    for (const auto &mix : mixes) {
        std::string joined;
        for (const auto &name : mix)
            joined += (joined.empty() ? "" : "+") + name;
        nameWidth = std::max(nameWidth, joined.size());
    }
    std::printf("%-*s", static_cast<int>(nameWidth), "Mix");
    for (const ScenarioCell &col : columns)
        std::printf(" %12s", col.label.c_str());
    std::printf("\n");

    const std::size_t nCols = columns.size();
    for (std::size_t m = 0; m < mixes.size(); ++m) {
        const ScenarioResult &first = table.at(m * nCols *
            static_cast<std::size_t>(opt.seeds));
        std::printf("%-*s", static_cast<int>(nameWidth),
                    first.scenario.workloadName().c_str());
        for (std::size_t c = 0; c < nCols; ++c) {
            const SeedSummary &s = sums[m * nCols + c];
            if (opt.seeds > 1)
                std::printf(" %7.3f±%.3f", s.mean, s.ciHalf);
            else
                std::printf(" %12.3f", s.mean);
        }
        std::printf("\n");
    }
    std::printf("\n(per-core traces replay bit-identically across "
                "engines and thread counts;\n seeds perturb only the "
                "replay start offsets)\n");
    finish(opt, "fig_multiprog", table);
    return 0;
}
