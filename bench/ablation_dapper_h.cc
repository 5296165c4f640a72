/**
 * @file
 * Ablation (beyond the paper's figures, motivated by Section VI):
 * compare full DAPPER-H with two variants that each drop one
 * ingredient: the per-bank bit-vector (`dapper-h-nobv`) and double
 * hashing (DAPPER-S, a single hash), under no attack and the two
 * mapping-agnostic attacks. The conservative reset rule is not
 * ablated: zeroing the counters instead is unsafe.
 *
 * Expected: without the bit-vector the streaming attack inflates Table 1
 * and forces mitigations (DAPPER-S-like overhead); DAPPER-S (single
 * hash) pays group-wide refreshes under the refresh attack.
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace dapper;
    using namespace dapper::benchutil;

    const Options opt = parse(argc, argv);
    printHeader("Ablation: DAPPER-H design ingredients", makeConfig(opt));

    // The attack dimension lives on the benign/streaming/refresh axis.
    const auto variants = filterCells(
        opt,
        {
            {"DAPPER-H (full)", "dapper-h", "", {}},
            {"  - bit-vector", "dapper-h-nobv", "", {}},
            {"DAPPER-S (single hash)", "dapper-s", "", {}},
        },
        argv[0], CellFilterSpec::trackerAxisOnly());
    const auto cases = filterCells(
        opt,
        {
            {"Benign", "", "none", Baseline::NoAttack},
            {"Streaming", "", "streaming", Baseline::SameAttack},
            {"Refresh", "", "refresh", Baseline::SameAttack},
        },
        argv[0], CellFilterSpec::attackAxisOnly());
    const std::string workload = "429.mcf";

    std::printf("%-26s", "Variant");
    for (std::size_t k = 0; k < cases.size(); ++k)
        std::printf(k == 0 ? " %10s" : " %12s", cases[k].label.c_str());
    std::printf("\n");
    const std::size_t nVar = variants.size();
    const std::size_t nCases = cases.size();
    ScenarioGrid grid(baseScenario(opt).workload(workload));
    grid.cells(variants).cells(cases);
    Runner runner(opt.jobs);
    ResultTable table = runner.run(grid);
    const auto norms = table.normalizedValues();
    for (std::size_t v = 0; v < nVar; ++v) {
        std::printf("%-26s", variants[v].label.c_str());
        for (std::size_t k = 0; k < nCases; ++k)
            std::printf(k == 0 ? " %10.4f" : " %12.4f",
                        norms[v * nCases + k]);
        std::printf("\n");
    }

    // Mitigation-count view of the bit-vector's effect.
    if (opt.attackFilter.empty() || opt.attackFilter == "streaming") {
        std::printf("\nMitigations under the streaming attack:\n");
        ScenarioGrid countGrid(
            baseScenario(opt).workload(workload).attack("streaming"));
        countGrid.cells(variants);
        const ResultTable counts = runner.run(countGrid);
        for (std::size_t v = 0; v < nVar; ++v)
            std::printf("%-26s %llu\n", variants[v].label.c_str(),
                        static_cast<unsigned long long>(
                            counts.at(v).run.mitigations));
        table.merge(counts);
    }
    finish(opt, "ablation_dapper_h", table);
    return 0;
}
