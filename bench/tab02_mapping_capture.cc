/**
 * @file
 * Table II: vulnerability of DAPPER-S to Mapping-Capturing attacks —
 * expected attack iterations and wall-clock time to capture one row-to-
 * group mapping pair, as a function of the reset period (Eqs. 1-5).
 *
 * Paper reference rows:
 *   treset 36us -> 1.8 iterations, 64us;
 *   treset 24us -> 3 iterations, 71us;
 *   treset 12us -> 630.6 iterations, 7.6ms.
 * Plus the DAPPER-H double-hashing analysis (Eqs. 6-7): ~99.99%
 * prevention within one tREFW.
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "src/analysis/security.hh"
#include "src/common/config.hh"

int
main(int argc, char **argv)
{
    using namespace dapper;

    // A closed-form table at fixed parameters: it takes no flags.
    benchutil::parse(argc, argv, 0);

    SysConfig cfg;
    cfg.nRH = 500;
    cfg.timeScale = 1.0; // Analytic model uses physical time.

    std::printf("Table II: DAPPER-S Mapping-Capturing attack cost "
                "(NRH=500, 2M rows/rank, group=256)\n");
    std::printf("%-16s %18s %16s\n", "Reset (us)", "Iterations",
                "Attack time");
    for (double resetUs : {36.0, 24.0, 12.0}) {
        const MappingCaptureResult r =
            analyzeDapperSMappingCapture(cfg, resetUs);
        std::printf("%-16.0f %18.1f %13.3f ms\n", resetUs, r.iterations,
                    r.attackTimeMs);
    }
    std::printf("(paper: 1.8 it / 64us; 3 it / 71us; 630.6 it / 7.6ms)\n");

    const DapperHCaptureResult h = analyzeDapperHMappingCapture(cfg);
    std::printf("\nDAPPER-H double-hashing (Eqs. 6-7):\n");
    std::printf("  per-trial success p        : %.3e\n", h.perTrial);
    std::printf("  trials per tREFW           : %.0f\n", h.trials);
    std::printf("  capture probability/tREFW  : %.5f (paper: ~0.0001)\n",
                h.captureProbability);
    std::printf("  prevention rate            : %.2f%% (paper: 99.99%%)\n",
                100.0 * (1.0 - h.captureProbability));
    return 0;
}
