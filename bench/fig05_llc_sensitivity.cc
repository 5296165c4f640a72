/**
 * @file
 * Figure 5: Perf-Attack impact with eight memory channels as the
 * per-core LLC grows from 2MB to 5MB (N_RH = 500).
 *
 * Paper reference: even with a 5MB per-core LLC and 8 channels the
 * attacks cost 30-79%, vs ~20% for cache thrashing — capacity and
 * channel count do not fix the vulnerability.
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace dapper;
    using namespace dapper::benchutil;

    const Options opt = parse(argc, argv);
    printHeader("Figure 5: LLC-capacity / channel-count sensitivity",
                makeConfig(opt));

    const Scenario base =
        baseScenario(opt)
            .baseline(Baseline::NoAttack)
            .tweak([](SysConfig &cfg) { cfg.channels = 8; });
    std::vector<ScenarioCell> columns = perfAttackColumns();
    filterCells(opt, base, argv[0], columns);
    const int llcPerCoreMB[] = {2, 3, 4, 5};

    const auto workloads =
        population(opt, {"429.mcf", "510.parest", "ycsb-a"});

    std::printf("%-10s", "LLC/core");
    for (const ScenarioCell &col : columns)
        std::printf(" %12s", col.label.c_str());
    std::printf("\n");

    const std::size_t nCols = columns.size();
    const std::size_t nCaps = std::size(llcPerCoreMB);
    const std::size_t perRow = nCols * workloads.size();

    std::vector<ScenarioGrid::AxisValue> capAxis;
    for (const int mb : llcPerCoreMB)
        capAxis.emplace_back(std::to_string(mb) + "MB/core",
                             [mb](Scenario &s) {
                                 s.tweak([mb](SysConfig &cfg) {
                                     cfg.llcBytes =
                                         static_cast<std::uint64_t>(mb) *
                                             cfg.numCores
                                         << 20;
                                 });
                             });

    ScenarioGrid grid(base);
    grid.axis(std::move(capAxis)).cells(columns).workloads(workloads);
    const ResultTable table = runGrid(opt, grid, argv[0]);
    const auto norms = seedMeans(opt, table);

    for (std::size_t m = 0; m < nCaps; ++m) {
        std::printf("%-9dM", llcPerCoreMB[m]);
        for (std::size_t c = 0; c < nCols; ++c)
            std::printf(" %12.3f",
                        geomeanSlice(norms,
                                     m * perRow + c * workloads.size(),
                                     workloads.size()));
        std::printf("\n");
    }
    std::printf("\n(paper: attacks 30-79%% loss, thrash ~20%%, at 8 "
                "channels)\n");
    finish(opt, "fig05_llc_sensitivity", table);
    return 0;
}
