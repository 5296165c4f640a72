/**
 * @file
 * Table III: storage overhead per 32GB DDR5 memory.
 *
 * Paper reference rows (SRAM KB / CAM KB / area mm^2):
 *   Hydra 56.5 / - / 0.044 ; CoMeT 112 / 23 / 0.139 ; START 4 / - / 0.003
 *   ABACUS 19.3 / 7.5 / 0.038 ; DAPPER-H 96 / - / 0.075
 *
 * Numbers come from TrackerInfo::storage() — the same registry path
 * the "tracker.storage.*" stats export resolves through — so this
 * table, the telemetry, and tests/registry_test.cc all read one
 * source of truth.
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "src/rh/registry.hh"

int
main(int argc, char **argv)
{
    using namespace dapper;

    // A closed-form table at fixed parameters: it takes no flags.
    benchutil::parse(argc, argv, 0);

    std::printf("Table III: storage overhead per 32GB DDR5 memory\n");
    std::printf("%-16s %10s %10s %14s\n", "Tracker", "SRAM(KB)", "CAM(KB)",
                "Area(mm^2)");

    const char *names[] = {
        "hydra", "comet", "start", "abacus", "dapper-s", "dapper-h",
    };

    for (const char *name : names) {
        SysConfig cfg;
        cfg.nRH = 500;
        // Storage is quoted per physical tREFW (no window scaling).
        cfg.timeScale = 1.0;
        const TrackerInfo &info = TrackerRegistry::instance().at(name);
        const StorageEstimate est = info.storage(cfg);
        std::printf("%-16s %10.1f %10.1f %14.3f\n",
                    info.displayName.c_str(), est.sramKB, est.camKB,
                    est.areaMm2());
    }
    return 0;
}
