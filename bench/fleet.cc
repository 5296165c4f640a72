/**
 * @file
 * dapper-fleet campaign driver: run a tracker x attack x workload
 * ScenarioGrid through the crash-safe fleet coordinator.
 *
 * Unlike the per-figure benches (whose tables have a fixed shape and
 * which accept --fleet as an execution backend), this driver exists for
 * open-ended campaigns: every registered tracker crossed with every
 * registered attack over the workload population, restrictable with
 * --tracker / --attack, scaled with --seeds, sharded with --shards, and
 * hardened with --watchdog / --max-attempts. The campaign directory
 * (--fleet, default fleet_campaign/) makes the run resumable: kill it
 * at any point — including SIGKILL mid-write — and a re-run continues
 * from the journals without repeating a single completed cell.
 *
 * Exit status (runGrid's rule): 0 when every cell is accounted for —
 * completed, or quarantined and published as an explicit gap, whose
 * tracker x attack slice prints "--"; 3 when the campaign was drained
 * by SIGINT/SIGTERM or some cell has no verdict yet.
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace dapper;
    using namespace dapper::benchutil;

    Options opt = parse(argc, argv);
    if (opt.fleetDir.empty())
        opt.fleetDir = "fleet_campaign";
    printHeader("dapper-fleet campaign", makeConfig(opt));
    std::printf("campaign dir: %s\n", opt.fleetDir.c_str());

    std::vector<std::string> trackers =
        opt.trackerFilter.empty() ? TrackerRegistry::instance().names()
                                  : std::vector<std::string>{
                                        opt.trackerFilter};
    std::vector<std::string> attacks =
        opt.attackFilter.empty() ? AttackRegistry::instance().names()
                                 : std::vector<std::string>{
                                       opt.attackFilter};
    const auto workloads = population(opt);
    std::printf("grid: %zu trackers x %zu attacks x %zu workloads x %d "
                "seed(s)\n\n",
                trackers.size(), attacks.size(), workloads.size(),
                opt.seeds);

    ScenarioGrid grid(baseScenario(opt).baseline(Baseline::NoAttack));
    grid.trackers(trackers).attacks(attacks).workloads(workloads);

    // runGrid prints the fleet progress report and exits 3 unless every
    // cell is accounted for, so the table holds every grid row here
    // (quarantined cells as gap rows).
    const ResultTable table = runGrid(opt, grid, argv[0]);

    const auto norms = table.normalizedValues();
    const auto nSeeds = static_cast<std::size_t>(opt.seeds);
    const std::size_t perSlice = workloads.size() * nSeeds;
    const std::size_t perTracker = attacks.size() * perSlice;
    std::printf("%-14s", "Tracker");
    for (const std::string &attack : attacks)
        std::printf(" %14s", attack.c_str());
    std::printf("\n");
    for (std::size_t t = 0; t < trackers.size(); ++t) {
        std::printf("%-14s", trackers[t].c_str());
        for (std::size_t a = 0; a < attacks.size(); ++a) {
            const std::size_t offset = t * perTracker + a * perSlice;
            bool gap = false;
            for (std::size_t i = offset; i < offset + perSlice; ++i)
                gap = gap || table.at(i).quarantined;
            if (gap)
                std::printf(" %14s", "--");
            else
                std::printf(" %14.4f",
                            geomeanSlice(norms, offset, perSlice));
        }
        std::printf("\n");
    }
    std::printf("\n(geomean normalized IPC vs idle baseline, per "
                "tracker x attack)\n");
    finish(opt, "fleet", table);
    return 0;
}
