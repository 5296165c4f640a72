/**
 * @file
 * Figure 16: DAPPER-H vs PARA / PrIDE under Perf-Attacks (the hammering
 * refresh-attack pattern forces probabilistic schemes into frequent
 * mitigations) across N_RH.
 *
 * Paper reference at N_RH = 125: DAPPER-H 6% vs PARA 14.6% and PrIDE
 * 22.8%; at N_RH = 1K with same-bank commands: DAPPER-H-DRFMsb 4.8% vs
 * PARA 23% / PrIDE 16%.
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace dapper;
    using namespace dapper::benchutil;

    const Options opt = parse(argc, argv);
    printHeader("Figure 16: probabilistic mitigations under Perf-Attack",
                makeConfig(opt));

    const Scenario base = baseScenario(opt).attack("refresh").baseline(
        Baseline::SameAttack);
    std::vector<ScenarioCell> variants = {
        {"", "para", "", {}},
        {"", "para-drfmsb", "", {}},
        {"", "pride", "", {}},
        {"", "pride-rfmsb", "", {}},
        {"", "dapper-h", "", {}},
        {"", "dapper-h-drfmsb", "", {}},
    };
    filterCells(opt, base, argv[0], variants);
    const std::vector<int> thresholds = {125, 250, 500, 1000, 2000, 4000};
    const auto workloads = population(opt, {"429.mcf", "ycsb-a"});

    std::printf("%-8s", "NRH");
    for (const ScenarioCell &v : variants)
        std::printf(" %16s",
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
            std::printf(" %16.4f",
                        geomeanSlice(norms,
                                     t * perRow + v * workloads.size(),
                                     workloads.size()));
        std::printf("\n");
    }
    std::printf("\n(paper at NRH=125: DAPPER-H 0.94, PARA 0.85, PrIDE "
                "0.77)\n");
    finish(opt, "fig16_probabilistic_attack", table);
    return 0;
}
