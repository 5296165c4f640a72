/**
 * @file
 * Figure 12: DAPPER-H normalized performance as N_RH varies from 125 to
 * 4K — benign, under the streaming attack, and under the refresh attack.
 *
 * Paper reference: < 1% slowdown at N_RH >= 500 even under attack; ~6%
 * at N_RH = 125 under the refresh attack.
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace dapper;
    using namespace dapper::benchutil;

    // The grid sweeps N_RH itself, so --nrh cannot apply.
    const Options opt = parse(argc, argv, kGridBench & ~kNrhFlag);
    printHeader("Figure 12: DAPPER-H vs N_RH (benign / streaming / "
                "refresh)",
                makeConfig(opt));

    const std::vector<int> thresholds = {125, 250, 500, 1000, 2000, 4000};
    const auto workloads =
        population(opt, {"429.mcf", "510.parest", "ycsb-a"});

    std::printf("%-8s %14s %18s %18s\n", "NRH", "Benign",
                "Streaming attack", "Refresh attack");
    const Scenario base = baseScenario(opt).tracker("dapper-h");
    std::vector<ScenarioCell> cells = {
        {"benign", "", "none", Baseline::NoAttack},
        {"streaming", "", "streaming", Baseline::SameAttack},
        {"refresh", "", "refresh", Baseline::SameAttack},
    };
    filterCells(opt, base, argv[0], cells);
    ScenarioGrid grid(base);
    grid.nRH(thresholds).cells(cells).workloads(workloads);
    const ResultTable table = runGrid(opt, grid, argv[0]);
    const auto norms = table.normalizedValues();

    // Row layout: nRH x cell x workload x seed (seeds innermost). Each
    // printed value is the geomean over workloads; with --seeds > 1 the
    // geomean is taken per replica and the replicas summarized, so the
    // CI reflects seed-to-seed spread of the aggregate.
    const auto nSeeds = static_cast<std::size_t>(opt.seeds);
    const std::size_t perRow = cells.size() * workloads.size() * nSeeds;
    auto columnSummary = [&](std::size_t t, std::size_t c) {
        std::vector<double> replicaGeomeans(nSeeds);
        for (std::size_t k = 0; k < nSeeds; ++k) {
            std::vector<double> perWorkload(workloads.size());
            for (std::size_t w = 0; w < workloads.size(); ++w)
                perWorkload[w] =
                    norms[t * perRow +
                          (c * workloads.size() + w) * nSeeds + k];
            replicaGeomeans[k] = geomean(perWorkload);
        }
        return summarizeSeeds(replicaGeomeans);
    };

    for (std::size_t t = 0; t < thresholds.size(); ++t) {
        std::printf("%-8d", thresholds[t]);
        for (std::size_t c = 0; c < cells.size(); ++c) {
            const SeedSummary s = columnSummary(t, c);
            if (opt.seeds > 1)
                std::printf(" %*.4f±%.4f", c == 0 ? 8 : 12, s.mean,
                            s.ciHalf);
            else
                std::printf(" %*.4f", c == 0 ? 14 : 18, s.mean);
        }
        std::printf("\n");
    }
    std::printf("\n(paper: <1%% at NRH>=500; ~6%% at NRH=125 under "
                "refresh attack)\n");
    finish(opt, "fig12_nrh_sweep", table);
    return 0;
}
