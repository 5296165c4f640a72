/**
 * @file
 * Figure 13: DAPPER-H with blast radius 1 (default), blast radius 2,
 * and Same-Bank DRFM mitigations, under benign load and the refresh
 * attack, across N_RH.
 *
 * Paper reference: at N_RH = 500 under the refresh attack, BR1 ~1%,
 * BR2 ~2%, DRFMsb ~8%; at N_RH = 125: 6% / 9.2% / 27.1%.
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace dapper;
    using namespace dapper::benchutil;

    const Options opt = parse(argc, argv);
    printHeader("Figure 13: blast radius and DRFMsb cost", makeConfig(opt));

    // The attack dimension lives on the benign/attacked cell axis below.
    const Scenario base = baseScenario(opt);
    std::vector<ScenarioCell> variants = {
        {"", "dapper-h", "", {}},
        {"", "dapper-h-br2", "", {}},
        {"", "dapper-h-drfmsb", "", {}},
    };
    std::vector<ScenarioCell> halves = {
        {"benign", "", "none", Baseline::NoAttack},
        {"attacked", "", "refresh", Baseline::SameAttack},
    };
    filterCells(opt, base, argv[0], variants, halves);
    const std::vector<int> thresholds = {125, 250, 500, 1000, 2000, 4000};
    const auto workloads = population(opt, {"429.mcf", "ycsb-a"});

    std::printf("%-8s", "NRH");
    for (const ScenarioCell &v : variants)
        for (std::size_t h = 0; h < halves.size(); ++h)
            std::printf(h == 0 ? " %16s" : " %18s",
                        h == 0 ? TrackerRegistry::instance()
                                     .at(v.tracker)
                                     .displayName.c_str()
                               : "(+refresh)");
    std::printf("\n");
    // With --attack the per-variant benign/attacked column pair
    // collapses to one column; say which half it shows.
    if (halves.size() == 1)
        std::printf("(all columns: %s)\n",
                    halves[0].label == "attacked" ? "under refresh attack"
                                                  : "benign");

    // Index: (threshold, variant, {benign, attacked}, workload).
    const std::size_t nVar = variants.size();
    const std::size_t perVariant = halves.size() * workloads.size();
    const std::size_t perRow = nVar * perVariant;
    ScenarioGrid grid(base);
    grid.nRH(thresholds).cells(variants).cells(halves).workloads(
        workloads);
    const ResultTable table = runGrid(opt, grid, argv[0]);
    const auto norms = seedMeans(opt, table);

    for (std::size_t t = 0; t < thresholds.size(); ++t) {
        std::printf("%-8d", thresholds[t]);
        for (std::size_t v = 0; v < nVar; ++v)
            for (std::size_t half = 0; half < halves.size(); ++half)
                std::printf(half == 0 ? " %16.4f" : " %18.4f",
                            geomeanSlice(norms,
                                         t * perRow + v * perVariant +
                                             half * workloads.size(),
                                         workloads.size()));
        std::printf("\n");
    }
    std::printf("\n(paper at NRH=500 +refresh: BR1 ~1%%, BR2 ~2%%, "
                "DRFMsb ~8%%)\n");
    finish(opt, "fig13_blast_radius", table);
    return 0;
}
