/**
 * @file
 * Figure 15: DAPPER-H vs the probabilistic mitigations PARA and PrIDE
 * (per-bank and same-bank command flavours) on benign applications
 * across N_RH.
 *
 * Paper reference at N_RH = 500: PARA 3%, PrIDE 7%, PARA-DRFMsb 18.4%,
 * PrIDE-RFMsb 11.5%, DAPPER-H(-DRFMsb) < 0.3%.
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace dapper;
    using namespace dapper::benchutil;

    // The grid sweeps N_RH itself, so --nrh cannot apply.
    const Options opt = parse(argc, argv, kGridBench & ~kNrhFlag);
    printHeader("Figure 15: probabilistic mitigations (benign)",
                makeConfig(opt));

    const Scenario base = baseScenario(opt).baseline(Baseline::NoAttack);
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
    const auto workloads =
        population(opt, {"429.mcf", "510.parest", "ycsb-a"});

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
    std::printf("\n(paper at NRH=500: PARA 0.97, PrIDE 0.93, "
                "PARA-DRFMsb 0.82, PrIDE-RFMsb 0.88, DAPPER-H ~1.0)\n");
    finish(opt, "fig15_probabilistic_benign", table);
    return 0;
}
