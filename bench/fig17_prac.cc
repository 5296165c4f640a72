/**
 * @file
 * Figure 17: DAPPER-H vs PRAC (QPRAC-style per-row activation counting
 * with Alert Back-Off) on benign applications and under Perf-Attacks.
 *
 * Paper reference: PRAC pays ~7% benign tax at every threshold (counter
 * read-modify-write on each ACT) but is barely affected by Perf-Attacks;
 * DAPPER-H is cheaper at N_RH >= 250 benign and loses at most ~6% at
 * N_RH = 125 under attack.
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace dapper;
    using namespace dapper::benchutil;

    const Options opt = parse(argc, argv);
    printHeader("Figure 17: PRAC comparison", makeConfig(opt));

    const std::vector<int> thresholds = {125, 250, 500, 1000, 2000, 4000};
    const auto workloads = population(opt, {"429.mcf", "ycsb-a"});

    std::printf("%-8s %12s %12s %14s %14s\n", "NRH", "PRAC",
                "PRAC-Perf", "DAPPER-H", "DAPPER-H-Refr");
    const Scenario base = baseScenario(opt);
    std::vector<ScenarioCell> cells = {
        {"prac-benign", "prac", "none", Baseline::NoAttack},
        {"prac-refresh", "prac", "refresh", Baseline::SameAttack},
        {"dapper-h-benign", "dapper-h", "none", Baseline::NoAttack},
        {"dapper-h-refresh", "dapper-h", "refresh", Baseline::SameAttack},
    };
    filterCells(opt, base, argv[0], cells);
    const std::size_t perRow = cells.size() * workloads.size();
    ScenarioGrid grid(base);
    grid.nRH(thresholds).cells(cells).workloads(workloads);
    const ResultTable table = runGrid(opt, grid, argv[0]);
    const auto norms = seedMeans(opt, table);

    for (std::size_t t = 0; t < thresholds.size(); ++t) {
        std::printf("%-8d", thresholds[t]);
        for (std::size_t c = 0; c < cells.size(); ++c)
            std::printf(" %*.4f", c < 2 ? 12 : 14,
                        geomeanSlice(norms,
                                     t * perRow + c * workloads.size(),
                                     workloads.size()));
        std::printf("\n");
    }
    std::printf("\n(paper: PRAC ~0.93 benign at all NRH; DAPPER-H "
                ">= 0.96 benign, >= 0.94 attacked)\n");
    finish(opt, "fig17_prac", table);
    return 0;
}
