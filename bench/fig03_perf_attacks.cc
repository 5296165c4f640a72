/**
 * @file
 * Figure 3: per-workload normalized performance of Hydra / START /
 * ABACUS / CoMeT under cache-thrashing and tailored Perf-Attacks, split
 * into the ">= 2 row-buffer misses per kilo-instruction" population and
 * all workloads.
 *
 * Paper reference: 60-90% average loss under Perf-Attacks, ~40% under
 * cache thrashing; 510.parest worst for Hydra/START (88% / 91.2%).
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace dapper;
    using namespace dapper::benchutil;

    const Options opt = parse(argc, argv);
    printHeader("Figure 3: per-workload Perf-Attack impact",
                makeConfig(opt));

    const Scenario base = baseScenario(opt).baseline(Baseline::NoAttack);
    std::vector<ScenarioCell> columns = perfAttackColumns();
    filterCells(opt, base, argv[0], columns);

    const auto workloads = suitePopulation(opt, argv[0]);
    std::printf("%-22s %7s", "Workload", "RBMPKI");
    for (const ScenarioCell &col : columns)
        std::printf(" %12s", col.label.c_str());
    std::printf("\n");

    const std::size_t nCols = columns.size();
    ScenarioGrid grid(base);
    grid.workloads(workloads).cells(columns);
    const ResultTable table = runGrid(opt, grid, argv[0]);
    // One summary per (workload, column); with --seeds 1 the mean is
    // the single measurement and the CI half-width is 0.
    const auto sums =
        table.seedSummaries(static_cast<std::size_t>(opt.seeds));

    std::map<std::string, std::vector<double>> hi;
    std::map<std::string, std::vector<double>> all;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const double rbmpki = findWorkload(workloads[w]).rbmpki();
        std::printf("%-22s %7.2f", workloads[w].c_str(), rbmpki);
        for (std::size_t c = 0; c < nCols; ++c) {
            const SeedSummary &s = sums[w * nCols + c];
            if (opt.seeds > 1)
                std::printf(" %7.3f±%.3f", s.mean, s.ciHalf);
            else
                std::printf(" %12.3f", s.mean);
            all[columns[c].label].push_back(s.mean);
            if (rbmpki >= 2.0)
                hi[columns[c].label].push_back(s.mean);
        }
        std::printf("\n");
    }

    std::printf("\n%-30s", "geomean (RBMPKI >= 2)");
    for (const ScenarioCell &col : columns)
        std::printf(" %12.3f", geomean(hi[col.label]));
    std::printf("\n%-30s", "geomean (all)");
    for (const ScenarioCell &col : columns)
        std::printf(" %12.3f", geomean(all[col.label]));
    std::printf("\n\n(paper: Perf-Attacks 60-90%% loss, thrash ~40%%)\n");
    finish(opt, "fig03_perf_attacks", table);
    return 0;
}
