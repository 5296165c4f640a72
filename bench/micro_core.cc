/**
 * @file
 * Core microbench: isolates the cost of stepping the out-of-order-ish
 * core model itself — batched analytic retirement on the event engine
 * (Core::tickEvent, see src/cpu/README.md).
 *
 * The grid is three bare-metal cells with no tracker and no attacker,
 * spanning the bubble spectrum that decides how much a closed-form
 * retire run can cover:
 *
 *   456.hmmer  compute-bound (MPKI 0.05): ~800 bubbles per memory
 *              instruction — retirement is almost pure bubble-draining,
 *              the best case for batching;
 *   403.gcc    moderate (MPKI 2.2): tens of bubbles per record;
 *   429.mcf    memory-bound (MPKI 55): heads block on fills long before
 *              a batch forms — the worst case, pinned so a regression
 *              that trades memory-bound throughput for compute-bound
 *              wins cannot hide.
 *
 * The same three cells are pinned bit-identical to the per-tick oracle
 * (Core::tick every cycle) by SchedulerEquivalenceScaled in
 * tests/scheduler_equivalence_test.cc. With --repeat N each cell is
 * simulated N times (median-of-N, per-rep times on stderr) and every
 * repetition must reproduce the first rep's full telemetry dict
 * bit-identically.
 */

#include <cinttypes>
#include <cstdint>
#include <cstring>

#include "bench/bench_util.hh"
#include "src/common/check.hh"
#include "src/sim/experiment.hh"

namespace {

using namespace dapper;

/// Order-sensitive FNV-1a over the full telemetry export (entry names,
/// bit patterns of values, probe series) — two runs agree iff the hash
/// does, so the --repeat identity check cannot pass on a subset.
std::uint64_t
fingerprint(const RunResult &r)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    auto mixStr = [&h](const std::string &s) {
        for (const char c : s) {
            h ^= static_cast<unsigned char>(c);
            h *= 1099511628211ull;
        }
    };
    for (const StatEntry &e : r.stats.entries()) {
        mixStr(e.name);
        if (e.type == StatEntry::Type::U64) {
            mix(e.u64);
        } else {
            std::uint64_t bits;
            static_assert(sizeof(bits) == sizeof(e.f64), "");
            std::memcpy(&bits, &e.f64, sizeof(bits));
            mix(bits);
        }
    }
    for (const StatSeries &s : r.stats.series()) {
        mixStr(s.name);
        for (const double v : s.values) {
            std::uint64_t bits;
            std::memcpy(&bits, &v, sizeof(bits));
            mix(bits);
        }
    }
    return h;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace dapper::benchutil;

    // Bare cores + LLC + controllers on three fixed workloads, timed
    // with --repeat: no grid, so only the config flags apply.
    const Options opt = parse(argc, argv, kComponentBench | kRepeatFlag);
    const SysConfig cfg = makeConfig(opt);
    printHeader("Core micro: batched vs per-instruction retirement", cfg);

    // Bubble-spectrum cells (see file header).
    static const char *const kWorkloads[] = {"456.hmmer", "403.gcc",
                                             "429.mcf"};
    const Tick horizon = horizonOf(cfg, opt);

    std::printf("%-12s %10s %12s %12s %14s\n", "Workload", "IPC",
                "Activations", "LLCmisses", "Fingerprint");
    for (const char *workload : kWorkloads) {
        RunResult first;
        std::uint64_t firstFp = 0;
        const double secs = timedMedian(opt.repeat, [&](int rep) {
            RunResult r = runOnce(cfg, workload, "none",
                                  "none", horizon);
            const std::uint64_t fp = fingerprint(r);
            if (rep == 0) {
                first = std::move(r);
                firstFp = fp;
            } else {
                // Seed purity: every repetition must replay the first
                // one exactly, or the median below times different work.
                DAPPER_CHECK(fp == firstFp,
                             "repetition diverged from rep 1");
            }
        });
        const StatEntry *misses = first.stats.find("llc.misses");
        std::printf("%-12s %10.4f %12" PRIu64 " %12" PRIu64 " %14" PRIx64
                    "\n",
                    workload, first.benignIpcMean, first.activations,
                    misses != nullptr ? misses->u64 : 0, firstFp);
        if (opt.repeat > 1)
            std::fprintf(stderr, "%s: median %.3fs of %d reps\n",
                         workload, secs, opt.repeat);
    }
    return 0;
}
