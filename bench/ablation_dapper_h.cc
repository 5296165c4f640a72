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
    const Scenario base = baseScenario(opt);
    std::vector<ScenarioCell> variants = {
        {"DAPPER-H (full)", "dapper-h", "", {}},
        {"  - bit-vector", "dapper-h-nobv", "", {}},
        {"DAPPER-S (single hash)", "dapper-s", "", {}},
    };
    std::vector<ScenarioCell> cases = {
        {"Benign", "", "none", Baseline::NoAttack},
        {"Streaming", "", "streaming", Baseline::SameAttack},
        {"Refresh", "", "refresh", Baseline::SameAttack},
    };
    filterCells(opt, base, argv[0], variants, cases);
    const auto workloads = population(opt, {"429.mcf"});

    std::printf("%-26s", "Variant");
    for (std::size_t k = 0; k < cases.size(); ++k)
        std::printf(k == 0 ? " %10s" : " %12s", cases[k].label.c_str());
    std::printf("\n");
    // Index: (workload, variant, case, seed); geomean over workloads.
    const std::size_t nVar = variants.size();
    const std::size_t nCases = cases.size();
    const std::size_t perWorkload = nVar * nCases;
    ScenarioGrid grid = workloadGrid(base, workloads);
    grid.cells(variants).cells(cases);
    const ResultTable table = runGrid(opt, grid, argv[0]);
    const auto means = seedMeans(opt, table);
    for (std::size_t v = 0; v < nVar; ++v) {
        std::printf("%-26s", variants[v].label.c_str());
        for (std::size_t k = 0; k < nCases; ++k) {
            std::vector<double> perW;
            for (std::size_t w = 0; w < workloads.size(); ++w)
                perW.push_back(means[w * perWorkload + v * nCases + k]);
            std::printf(k == 0 ? " %10.4f" : " %12.4f", geomean(perW));
        }
        std::printf("\n");
    }

    // Mitigation-count view of the bit-vector's effect: the mean over
    // the Streaming column's runs (every workload and seed).
    if (opt.attackFilter.empty() || opt.attackFilter == "streaming") {
        std::printf("\nMitigations under the streaming attack:\n");
        for (const ScenarioCell &variant : variants) {
            double sum = 0.0;
            std::size_t runs = 0;
            for (const ScenarioResult &row : table.rows())
                if (row.scenario.trackerInfo().name == variant.tracker &&
                    row.scenario.attackInfo().name == "streaming") {
                    sum += static_cast<double>(row.run.mitigations);
                    ++runs;
                }
            std::printf("%-26s %.0f\n", variant.label.c_str(),
                        sum / static_cast<double>(runs));
        }
    }
    finish(opt, "ablation_dapper_h", table);
    return 0;
}
