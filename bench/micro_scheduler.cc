/**
 * @file
 * Scheduler benchmark: wall-clock of the simulation engine on the
 * mitigation-blocking-heavy configurations the event-driven scheduler
 * targets — BlockHammer false-positive throttling at ultra-low N_RH
 * (Fig. 14's headline case) and CoMeT / ABACUS bulk structure resets,
 * where banks spend long stretches blocked and the per-tick reference
 * loop burns its budget on dead cycles — plus saturated Perf-Attack
 * cells (Hydra / START under their tailored attacks), where most ticks
 * are active and the FR-FCFS window scan dominates instead.
 *
 * It times the event-driven engine only; its equivalence to the
 * per-tick oracle is a ctest (tests/scheduler_equivalence_test.cc).
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace dapper;
    using namespace dapper::benchutil;

    // The table prints raw per-run fields, so --seeds cannot apply.
    const Options opt = parse(argc, argv, kGridBench & ~kSeedsFlag);
    printHeader("Scheduler bench: mitigation-blocking configurations",
                makeConfig(opt));

    struct Cell
    {
        const char *label;
        const char *tracker;
        const char *attack;
        int nRH;
    };
    const Cell allCells[] = {
        {"blockhammer-125", "blockhammer", "none", 125},
        {"blockhammer-250", "blockhammer", "none", 250},
        {"blockhammer-500", "blockhammer", "none", 500},
        {"comet-rat-125", "comet", "comet-rat", 125},
        {"comet-rat-500", "comet", "comet-rat", 500},
        {"abacus-spill-500", "abacus", "abacus-spill", 500},
        // Saturated Perf-Attack cells: the memory system stays busy, so
        // engine wins must come from cheap issue decisions, not skipped
        // dead time.
        {"hydra-rcc-500", "hydra", "hydra-rcc", 500},
        {"start-stream-500", "start", "start-stream", 500},
    };
    const auto workloads = population(opt, {"429.mcf"});

    // --tracker / --attack restrict the cell list directly (the cells
    // pair trackers with their stressing attacks and thresholds).
    std::vector<Cell> cells;
    for (const Cell &cell : allCells)
        if ((opt.trackerFilter.empty() ||
             opt.trackerFilter == cell.tracker) &&
            (opt.attackFilter.empty() || opt.attackFilter == cell.attack))
            cells.push_back(cell);
    if (cells.empty())
        usage(argv[0],
              "--tracker/--attack match no cell of this bench");

    std::vector<ScenarioGrid::AxisValue> axis;
    for (const Cell &cell : cells)
        axis.emplace_back(cell.label, [cell](Scenario &s) {
            s.tracker(cell.tracker).attack(cell.attack).nRH(cell.nRH);
        });
    ScenarioGrid grid = workloadGrid(baseScenario(opt), workloads);
    grid.axis(std::move(axis));
    const ResultTable table = runGrid(opt, grid, argv[0]);

    // Rows are labelled "workload/cell" when --full crosses workloads.
    int width = 18;
    for (const ScenarioResult &row : table.rows())
        width = std::max(width,
                         static_cast<int>(row.scenario.labelText().size()));
    std::printf("%-*s %10s %12s %12s %8s\n", width, "Config", "IPC",
                "Activations", "Mitigations", "RHviol");
    for (const ScenarioResult &row : table.rows()) {
        const RunResult &r = row.run;
        std::printf("%-*s %10.4f %12llu %12llu %8llu\n", width,
                    row.scenario.labelText().c_str(),
                    r.benignIpcMean,
                    static_cast<unsigned long long>(r.activations),
                    static_cast<unsigned long long>(r.mitigations),
                    static_cast<unsigned long long>(r.rhViolations));
    }
    finish(opt, "micro_scheduler", table);
    return 0;
}
