/**
 * @file
 * Figure 14: DAPPER-H vs BlockHammer on benign applications across
 * N_RH.
 *
 * Paper reference: BlockHammer degrades sharply at ultra-low thresholds
 * (7.5% at 1K, 25% at 500, 46.4% at 250, 66% at 125) from false-positive
 * throttling, while DAPPER-H stays below ~4%.
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace dapper;
    using namespace dapper::benchutil;

    // The grid sweeps N_RH itself, so --nrh cannot apply.
    const Options opt = parse(argc, argv, kGridBench & ~kNrhFlag);
    printHeader("Figure 14: BlockHammer comparison (benign)",
                makeConfig(opt));

    const Scenario base = baseScenario(opt).baseline(Baseline::NoAttack);
    std::vector<ScenarioCell> variants = {
        {"", "blockhammer", "", {}},
        {"", "dapper-h", "", {}},
        {"", "dapper-h-drfmsb", "", {}},
    };
    filterCells(opt, base, argv[0], variants);
    const std::vector<int> thresholds = {125, 250, 500, 1000, 2000, 4000};
    const auto workloads =
        population(opt, {"429.mcf", "510.parest", "ycsb-a"});

    std::printf("%-8s", "NRH");
    for (const ScenarioCell &v : variants)
        std::printf(" %18s",
                    TrackerRegistry::instance()
                        .at(v.tracker)
                        .displayName.c_str());
    std::printf("\n");

    const std::size_t nVar = variants.size();
    const std::size_t perRow = nVar * workloads.size();
    ScenarioGrid grid(base);
    grid.nRH(thresholds).cells(variants).workloads(workloads);
    const ResultTable table = runGrid(opt, grid, argv[0]);
    const auto norms = seedMeans(opt, table);

    for (std::size_t t = 0; t < thresholds.size(); ++t) {
        std::printf("%-8d", thresholds[t]);
        for (std::size_t v = 0; v < nVar; ++v)
            std::printf(" %18.4f",
                        geomeanSlice(norms,
                                     t * perRow + v * workloads.size(),
                                     workloads.size()));
        std::printf("\n");
    }
    std::printf("\n(paper: BlockHammer 0.34 at NRH=125, 0.75 at 500; "
                "DAPPER-H >= 0.96 everywhere)\n");
    finish(opt, "fig14_blockhammer", table);
    return 0;
}
