/**
 * @file
 * Table IV: energy overhead of DAPPER-H vs an unprotected system, for
 * benign load and under the streaming / refresh attacks, as N_RH varies.
 *
 * Paper reference (benign / streaming / refresh): 125: 4.5/7.0/7.5%;
 * 500: 0.1/0.2/1.1%; 4000: ~0/0/0.4%.
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace dapper;
    using namespace dapper::benchutil;

    // The table is a fixed none-vs-DAPPER-H energy ratio per attack, so
    // filtering either dimension would break the ratios, and it reads
    // raw per-run energy, so --seeds cannot apply.
    const Options opt =
        parse(argc, argv, kGridBench & ~kFilterFlags & ~kSeedsFlag);
    printHeader("Table IV: energy overhead of DAPPER-H", makeConfig(opt));

    const std::vector<int> thresholds = {125, 250, 500, 1000, 2000, 4000};
    const auto workloads = population(opt, {"429.mcf"});

    std::printf("%-8s %10s %14s %14s\n", "NRH", "Benign", "Streaming",
                "Refresh");
    // Grid: (workload, threshold, tracker, attack); raw runs. Each
    // ratio compares the energy summed over the workloads.
    ScenarioGrid grid = workloadGrid(baseScenario(opt), workloads);
    grid.nRH(thresholds)
        .trackers({"none", "dapper-h"})
        .attacks({"none", "streaming", "refresh"});
    const std::size_t perRow = 2 * 3;
    const std::size_t perWorkload = thresholds.size() * perRow;
    const ResultTable table = runGrid(opt, grid, argv[0]);

    for (std::size_t t = 0; t < thresholds.size(); ++t) {
        auto energy = [&](std::size_t off) {
            double sum = 0.0;
            for (std::size_t w = 0; w < workloads.size(); ++w)
                sum += table.at(w * perWorkload + t * perRow + off)
                           .run.energyNj;
            return sum;
        };
        // Tracker "none" is offset 0, "dapper-h" offset 3.
        auto ratio = [&](std::size_t off) {
            return 100.0 * (energy(3 + off) / energy(off) - 1.0);
        };
        std::printf("%-8d %9.2f%% %13.2f%% %13.2f%%\n", thresholds[t],
                    ratio(0), ratio(1), ratio(2));
    }
    std::printf("\n(paper: 4.5/7.0/7.5%% at 125; 0.1/0.2/1.1%% at 500; "
                "~0 at 4000)\n");
    finish(opt, "tab04_energy", table);
    return 0;
}
