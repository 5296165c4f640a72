/**
 * @file
 * Figure 4: sensitivity of scalable RH mitigations to the RowHammer
 * threshold (N_RH 500-4000) under cache-thrashing and tailored
 * Perf-Attacks.
 *
 * Paper reference: even at N_RH = 4K the trackers lose 46-71% vs ~41%
 * for cache thrashing; Hydra and CoMeT worsen as N_RH decreases while
 * START and ABACUS stay flat (their attacks are threshold-independent).
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace dapper;
    using namespace dapper::benchutil;

    // The grid sweeps N_RH itself, so --nrh cannot apply.
    const Options opt = parse(argc, argv, kGridBench & ~kNrhFlag);
    printHeader("Figure 4: N_RH sensitivity of Perf-Attacks",
                makeConfig(opt));

    const Scenario base = baseScenario(opt).baseline(Baseline::NoAttack);
    std::vector<ScenarioCell> columns = perfAttackColumns();
    filterCells(opt, base, argv[0], columns);
    const std::vector<int> thresholds = {500, 1000, 2000, 4000};

    const auto workloads =
        population(opt, {"429.mcf", "510.parest", "ycsb-a"});

    std::printf("%-8s", "NRH");
    for (const ScenarioCell &col : columns)
        std::printf(" %12s", col.label.c_str());
    std::printf("\n");

    const std::size_t nCols = columns.size();
    const std::size_t perRow = nCols * workloads.size();
    ScenarioGrid grid(base);
    grid.nRH(thresholds).cells(columns).workloads(workloads);
    const ResultTable table = runGrid(opt, grid, argv[0]);
    const auto norms = seedMeans(opt, table);

    for (std::size_t t = 0; t < thresholds.size(); ++t) {
        std::printf("%-8d", thresholds[t]);
        for (std::size_t c = 0; c < nCols; ++c)
            std::printf(" %12.3f",
                        geomeanSlice(norms,
                                     t * perRow + c * workloads.size(),
                                     workloads.size()));
        std::printf("\n");
    }
    std::printf("\n(paper: 46-71%% loss at NRH=4K; Hydra/CoMeT worsen "
                "with lower NRH)\n");
    finish(opt, "fig04_nrh_sensitivity", table);
    return 0;
}
