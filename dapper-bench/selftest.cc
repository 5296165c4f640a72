/**
 * @file
 * Attribution self-test: a slowdown injected at one traced boundary must
 * show up in that layer's bucket and nowhere else.
 *
 * The benchmark's own tracker decorator busy-waits a known delay inside
 * every onActivation (Trace::busyDelayNs; nothing in src/ changes).
 * Interleaved traced perf-attack runs with and without the delay (three
 * pairs, alternating which runs first) must show, by medians:
 *   - rh.tracker.act_host_s grows by about calls x delay (0.8-1.5x);
 *   - sim.engine_self_s does not grow;
 *   - the operation's wall time rises;
 *   - the fingerprint stays the pinned one (the delay is host-only).
 *
 * Exit code 0 on success, 1 with a message per failed check.
 */

#include <cstdio>
#include <vector>

#include "harness.hh"

namespace {

using namespace dbench;

// Large enough that host-speed drift between runs (tens of percent of
// the ~1.5 s undelayed run) stays well inside the tolerances below.
constexpr std::uint64_t kDelayNs = 5000;
constexpr int kReps = 3;

int failures = 0;

void
expect(bool ok, const char *what, double got, double lo, double hi)
{
    std::printf("%-44s %10.4f  [%.4f, %.4f]  %s\n", what, got, lo, hi,
                ok ? "ok" : "FAIL");
    failures += ok ? 0 : 1;
}

} // namespace

int
main()
{
    const Workload &w = workload("perf-attack");
    const dapper::SysConfig cfg = benchConfig(1);
    const std::optional<std::uint64_t> pin =
        pinnedFingerprint(w.name, cfg.seed);
    const ClockCost clock = calibrateClock();

    std::vector<double> act[2], self[2], wall[2];
    std::uint64_t acts = 0;
    for (int rep = 0; rep < kReps; ++rep) {
        // Alternate which side runs first, so host drift cancels.
        for (int k = 0; k < 2; ++k) {
            const int delayed = (rep + k) % 2;
            Trace trace;
            trace.busyDelayNs = delayed ? kDelayNs : 0;
            const OpResult op = runOp(w, cfg, &trace);
            if (!pin || op.fingerprint != *pin) {
                std::printf("fingerprint changed under the injected delay\n");
                ++failures;
            }
            const LayerTimes t = layerTimes(trace, op.simS, clock);
            act[delayed].push_back(t.actS);
            self[delayed].push_back(t.engineSelfS);
            wall[delayed].push_back(op.wallS);
            acts = trace.act.calls;
        }
    }

    const double injected = static_cast<double>(acts) *
                            static_cast<double>(kDelayNs) / 1e9;
    const double dAct = median(act[1]) - median(act[0]);
    const double dSelf = median(self[1]) - median(self[0]);
    const double dWall = median(wall[1]) - median(wall[0]);
    std::printf("%llu ACTs x %llu ns = %.4f s injected\n",
                static_cast<unsigned long long>(acts),
                static_cast<unsigned long long>(kDelayNs), injected);
    // The spin overshoots by about one timed call per ACT, and host
    // preemption during the spin lands in the same span, hence the
    // upper slack.
    const double hi = 1.5 * injected +
                      static_cast<double>(acts) * clock.callNs / 1e9;
    expect(dAct >= 0.8 * injected && dAct <= hi,
           "delta rh.tracker.act_host_s (s)", dAct, 0.8 * injected, hi);
    expect(dSelf <= 0.25 * injected, "delta sim.engine_self_s (s)", dSelf,
           -1.0, 0.25 * injected);
    expect(dWall >= 0.5 * injected, "delta wall (s)", dWall,
           0.5 * injected, 1e9);
    std::printf("%s\n", failures == 0 ? "attribution self-test passed"
                                      : "attribution self-test FAILED");
    return failures == 0 ? 0 : 1;
}
