/**
 * @file
 * Figure 9: performance impact of the two mapping-agnostic attacks
 * (streaming, refresh) on DAPPER-S at N_RH = 500, by suite.
 *
 * Paper reference: streaming costs 13%, refresh costs 20% on average.
 * Overhead here is reported against the attack-free insecure baseline
 * (as in the paper's figure) and, for reference, against the attack-
 * present baseline that isolates the tracker-induced part.
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace dapper;
    using namespace dapper::benchutil;

    const Options opt = parse(argc, argv);
    printHeader("Figure 9: mapping-agnostic attacks on DAPPER-S",
                makeConfig(opt));

    const Scenario base = baseScenario(opt).tracker("dapper-s");
    std::vector<ScenarioCell> attacks = {
        {"Streaming ovh% (vsIdle/vsAtk)", "", "streaming", {}},
        {"Refresh ovh% (vsIdle/vsAtk)", "", "refresh", {}},
    };
    filterCells(opt, base, argv[0], attacks);

    const auto workloads = suitePopulation(opt, argv[0]);
    std::printf("%-14s", "Suite");
    for (const ScenarioCell &cell : attacks)
        std::printf(" %22s", cell.label.c_str());
    std::printf("\n");

    // Grid: (attack, workload) x {NoAttack, SameAttack} baselines.
    const std::size_t nAtk = attacks.size();
    ScenarioGrid grid(base);
    grid.cells(attacks).workloads(workloads).baselines(
        {Baseline::NoAttack, Baseline::SameAttack});
    const ResultTable table = runGrid(opt, grid, argv[0]);
    const auto norms = seedMeans(opt, table);

    std::map<std::string, std::map<std::string, double>> idleN;
    std::map<std::string, std::map<std::string, double>> atkN;
    for (std::size_t a = 0; a < nAtk; ++a) {
        std::map<std::string, double> vsIdle;
        std::map<std::string, double> vsAtk;
        for (std::size_t w = 0; w < workloads.size(); ++w) {
            vsIdle[workloads[w]] =
                norms[a * workloads.size() * 2 + w * 2];
            vsAtk[workloads[w]] =
                norms[a * workloads.size() * 2 + w * 2 + 1];
        }
        idleN[attacks[a].attack] = bySuite(vsIdle);
        atkN[attacks[a].attack] = bySuite(vsAtk);
    }

    const char *suites[] = {"SPEC2K6", "SPEC2K17",   "TPC", "Hadoop",
                            "MediaBench", "YCSB", "All"};
    for (const char *suite : suites) {
        std::printf("%-14s", suite);
        for (const ScenarioCell &cell : attacks) {
            const auto &key = cell.attack;
            std::printf("      %6.1f / %-6.1f",
                        100.0 * (1.0 - idleN[key][suite]),
                        100.0 * (1.0 - atkN[key][suite]));
        }
        std::printf("\n");
    }
    std::printf("\n(paper: streaming 13%%, refresh 20%% average "
                "overhead)\n");
    finish(opt, "fig09_dapper_s_agnostic", table);
    return 0;
}
