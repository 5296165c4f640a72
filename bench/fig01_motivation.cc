/**
 * @file
 * Figure 1: normalized performance of state-of-the-art host-side RH
 * mitigations at N_RH = 500 under tailored RH-Tracker Perf-Attacks and a
 * cache-thrashing attack, aggregated by benchmark suite.
 *
 * Paper reference: tailored Perf-Attacks cause 60-90% slowdowns across
 * the suites while cache thrashing causes ~40%; CoMeT is hit hardest.
 * Normalization: unprotected, attack-free baseline (bars include the
 * attack's own bandwidth cost).
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace dapper;
    using namespace dapper::benchutil;

    const Options opt = parse(argc, argv);
    printHeader("Figure 1: motivation — Perf-Attacks on scalable trackers",
                makeConfig(opt));

    const Scenario base = baseScenario(opt).baseline(Baseline::NoAttack);
    std::vector<ScenarioCell> columns = perfAttackColumns();
    filterCells(opt, base, argv[0], columns);

    const auto workloads = suitePopulation(opt, argv[0]);
    const std::size_t nCols = columns.size();
    ScenarioGrid grid(base);
    grid.workloads(workloads).cells(columns);
    const ResultTable table = runGrid(opt, grid, argv[0]);
    const auto norms = seedMeans(opt, table);

    std::map<std::string, std::map<std::string, double>> results;
    for (std::size_t c = 0; c < nCols; ++c) {
        std::map<std::string, double> perWorkload;
        for (std::size_t w = 0; w < workloads.size(); ++w)
            perWorkload[workloads[w]] = norms[w * nCols + c];
        results[columns[c].label] = bySuite(perWorkload);
    }

    std::printf("%-14s", "Suite");
    for (const ScenarioCell &col : columns)
        std::printf(" %12s", col.label.c_str());
    std::printf("\n");
    const char *suites[] = {"SPEC2K6", "SPEC2K17",   "TPC", "Hadoop",
                            "MediaBench", "YCSB", "All"};
    for (const char *suite : suites) {
        std::printf("%-14s", suite);
        for (const ScenarioCell &col : columns) {
            auto it = results[col.label].find(suite);
            std::printf(" %12.3f",
                        it != results[col.label].end() ? it->second : 0.0);
        }
        std::printf("\n");
    }
    std::printf("\n(paper: trackers 0.1-0.4, cache thrashing ~0.6)\n");
    finish(opt, "fig01_motivation", table);
    return 0;
}
