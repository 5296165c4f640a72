/**
 * @file
 * Figure 11: DAPPER-H on benign applications (4 homogeneous copies,
 * no attacker) versus the insecure baseline at N_RH = 500.
 *
 * Paper reference: 0.1% average slowdown; worst case 4.4% (429.mcf).
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace dapper;
    using namespace dapper::benchutil;

    const Options opt = parse(argc, argv);
    printHeader("Figure 11: DAPPER-H benign overhead", makeConfig(opt));

    const auto workloads = suitePopulation(opt, argv[0]);
    std::printf("%-22s %7s %12s %12s\n", "Workload", "RBMPKI", "Norm",
                "Overhead%");

    const Scenario base = baseScenario(opt).baseline(Baseline::NoAttack);
    std::vector<ScenarioCell> cells = {{"", "dapper-h", "", {}}};
    filterCells(opt, base, argv[0], cells);
    ScenarioGrid grid(base);
    grid.workloads(workloads).cells(cells);
    const ResultTable table = runGrid(opt, grid, argv[0]);
    const auto norms = seedMeans(opt, table);

    std::vector<double> all;
    double worst = 1.0;
    std::string worstName;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const double n = norms[w];
        all.push_back(n);
        if (n < worst) {
            worst = n;
            worstName = workloads[w];
        }
        std::printf("%-22s %7.2f %12.4f %11.2f%%\n", workloads[w].c_str(),
                    findWorkload(workloads[w]).rbmpki(), n,
                    100.0 * (1.0 - n));
    }
    std::printf("\ngeomean overhead: %.2f%%  worst: %.2f%% (%s)\n",
                100.0 * (1.0 - geomean(all)), 100.0 * (1.0 - worst),
                worstName.c_str());
    std::printf("(paper: 0.1%% average, 4.4%% worst on 429.mcf)\n");
    finish(opt, "fig11_dapper_h_benign", table);
    return 0;
}
