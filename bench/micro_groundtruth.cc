/**
 * @file
 * GroundTruth microbench: times the epoch-stamped damage checker on a
 * deterministic DRAM event stream — the mix a saturated attack window
 * generates: double-sided ACT bursts across banks, per-rank
 * auto-refresh at tREFI cadence, victim refreshes from mitigations,
 * occasional bulk resets, and tREFW window boundaries — and prints its
 * observable state (stats plus a lazy-resolution damage checksum).
 *
 * It runs the production model only. Its equality with the dense
 * reference model (DenseGroundTruth in tests/oracle/) is pinned by
 * GroundTruth.MatchesDenseReferenceUnderRandomInterleavings, the
 * differential test in tests/ground_truth_test.cc.
 */

#include <cinttypes>
#include <cstdint>

#include "bench/bench_util.hh"
#include "src/common/rng.hh"
#include "src/rh/ground_truth.hh"

namespace {

using namespace dapper;

/**
 * Replay one canned event phase into @p gt and print its state.
 * @p actsPerWindow sets the mix: a saturated attack phase is
 * activation-heavy, a benign phase leaves the refresh machinery as
 * almost the whole cost.
 */
void
replay(GroundTruth &gt, const SysConfig &cfg, int windows,
       std::uint64_t actsPerWindow, std::uint64_t seed)
{
    Rng rng(seed);
    const int banks = cfg.banksPerRank();
    const int refsPerWindow = 8192; // tREFW / tREFI per rank.
    // ACT : REF interleave ratio per rank pair.
    const std::uint64_t actsPerRef =
        actsPerWindow /
        static_cast<std::uint64_t>(refsPerWindow * cfg.channels *
                                   cfg.ranksPerChannel) +
        1;

    for (int w = 0; w < windows; ++w) {
        std::uint64_t acts = 0;
        int refs = 0;
        while (refs < refsPerWindow) {
            // A burst of double-sided hammering on a few hot aggressor
            // pairs per bank plus background noise.
            for (std::uint64_t i = 0;
                 i < actsPerRef && acts < actsPerWindow; ++i, ++acts) {
                const int c = static_cast<int>(rng.below(
                    static_cast<std::uint64_t>(cfg.channels)));
                const int r = static_cast<int>(rng.below(
                    static_cast<std::uint64_t>(cfg.ranksPerChannel)));
                const int b = static_cast<int>(
                    rng.below(static_cast<std::uint64_t>(banks)));
                const int row =
                    rng.chance(0.75)
                        ? 1000 + static_cast<int>(rng.below(16)) * 2
                        : static_cast<int>(rng.below(
                              static_cast<std::uint64_t>(
                                  cfg.rowsPerBank)));
                gt.onActivation(c, r, b, row);
                if ((acts & 63) == 0)
                    gt.onMitigation(
                        c, {Mitigation::Kind::VrrRow, c, r, b, row});
            }
            // One REF per rank, round-robin across the machine.
            for (int c = 0; c < cfg.channels; ++c)
                for (int r = 0; r < cfg.ranksPerChannel; ++r)
                    gt.onAutoRefresh(c, r);
            ++refs;
            if (refs % 4096 == 0)
                gt.onMitigation(
                    0, {Mitigation::Kind::BulkRank, 0,
                        (refs / 4096 - 1) % cfg.ranksPerChannel, 0, 0});
        }
        // Boundary between windows, not after the last one, so the
        // checksum below probes live mid-window damage.
        if (w + 1 < windows)
            gt.onWindowBoundary();
    }

    // Lazy-resolution checksum: read damage back through damageOf so a
    // model that resolves stale cells wrongly cannot print clean stats.
    std::uint64_t checksum = 0;
    Rng probe(0xcafeu);
    for (int i = 0; i < 65536; ++i) {
        const int c = static_cast<int>(
            probe.below(static_cast<std::uint64_t>(cfg.channels)));
        const int r = static_cast<int>(probe.below(
            static_cast<std::uint64_t>(cfg.ranksPerChannel)));
        const int b = static_cast<int>(
            probe.below(static_cast<std::uint64_t>(banks)));
        const int row = static_cast<int>(probe.below(
            static_cast<std::uint64_t>(cfg.rowsPerBank)));
        checksum = checksum * 1099511628211ull +
                   gt.damageOf(c, r, b, row);
    }

    std::printf("acts %10" PRIu64 " violations %8" PRIu64
                " maxDamage %6u refsPerSweep %5d checksum %016" PRIx64
                "\n",
                gt.activations(), gt.violations(), gt.maxDamageEver(),
                gt.sliceCount(), checksum);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace dapper::benchutil;

    // Drives the bare GroundTruth model: only the config flags apply.
    const Options opt = parse(argc, argv, kComponentBench);
    const SysConfig cfg = makeConfig(opt);
    printHeader("GroundTruth micro: damage-checker event replay", cfg);

    // 32 replay windows per --windows unit keep the cost well above
    // timer noise.
    const int windows = opt.windows * 32;
    // Phase 1: saturated attack mix (bump-dominated on both sides).
    // Phase 2: benign mix — almost all refresh traffic.
    const struct
    {
        const char *name;
        std::uint64_t actsPerWindow;
    } phases[] = {{"attack", 400000}, {"benign", 4000}};
    GroundTruth gt(cfg);
    for (const auto &phase : phases) {
        std::printf("%-8s ", phase.name);
        replay(gt, cfg, windows, phase.actsPerWindow, 0x6d7467u);
    }
    return 0;
}
