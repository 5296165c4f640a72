/**
 * @file
 * Figure 10: DAPPER-H under the streaming and refresh mapping-agnostic
 * attacks at N_RH = 500, per workload and aggregated.
 *
 * Paper reference: < 1% average slowdown; maxima 4.7% (streaming) and
 * 2.3% (refresh). The paper normalizes to a non-secure baseline running
 * the same attack (the tracker-induced overhead); both normalizations
 * are printed.
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace dapper;
    using namespace dapper::benchutil;

    const Options opt = parse(argc, argv);
    printHeader("Figure 10: mapping-agnostic attacks on DAPPER-H",
                makeConfig(opt));

    const Scenario base = baseScenario(opt).tracker("dapper-h").baseline(
        Baseline::SameAttack);
    std::vector<ScenarioCell> attacks = {
        {"Stream ovh%", "", "streaming", {}},
        {"Refresh ovh%", "", "refresh", {}},
    };
    filterCells(opt, base, argv[0], attacks);

    const auto workloads = suitePopulation(opt, argv[0]);
    std::printf("%-22s %7s", "Workload", "RBMPKI");
    for (const ScenarioCell &cell : attacks)
        std::printf(" %16s", cell.label.c_str());
    std::printf("\n");

    const std::size_t nAtk = attacks.size();
    ScenarioGrid grid(base);
    grid.workloads(workloads).cells(attacks);
    const ResultTable table = runGrid(opt, grid, argv[0]);
    const auto norms = seedMeans(opt, table);

    std::vector<std::vector<double>> all(nAtk);
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        std::printf("%-22s %7.2f", workloads[w].c_str(),
                    findWorkload(workloads[w]).rbmpki());
        for (std::size_t a = 0; a < nAtk; ++a) {
            const double n = norms[w * nAtk + a];
            all[a].push_back(n);
            std::printf(" %15.2f%%", 100.0 * (1.0 - n));
        }
        std::printf("\n");
    }
    std::printf("\n%-30s", "geomean overhead");
    for (std::size_t a = 0; a < nAtk; ++a)
        std::printf(" %15.2f%%", 100.0 * (1.0 - geomean(all[a])));
    std::printf("\n(paper: <1%% average; max 4.7%% streaming / 2.3%% "
                "refresh)\n");
    finish(opt, "fig10_dapper_h_agnostic", table);
    return 0;
}
