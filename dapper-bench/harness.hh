/**
 * @file
 * dapper-bench harness: the benchmark's workloads, the cell runner that
 * builds and runs a System the way runOnce does, the outside-in tracing
 * decorators, and the full-telemetry fingerprint the correctness gate
 * compares against the pinned values in pins.inc.
 *
 * Everything here sits outside src/: tracing wraps only public
 * interfaces (TraceGen::next, the Tracker virtual hooks through a copied
 * TrackerInfo::make, a Probe attached with System::attachProbe, and
 * System::run / Runner::run), so the simulator's outputs are the same
 * traced or untraced. README.md maps each metric to its layer.
 */

#ifndef DAPPER_BENCH_HARNESS_HH
#define DAPPER_BENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "src/common/config.hh"
#include "src/common/stats.hh"
#include "src/rh/tracker.hh"

namespace dbench {

/** Host steady clock in nanoseconds. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Calls through one traced boundary and host nanoseconds inside them. */
struct Span
{
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;

    void
    add(std::uint64_t t0, std::uint64_t t1)
    {
        ++calls;
        ns += t1 - t0;
    }
};

/**
 * Per-layer accumulators of one traced operation. Decorators write
 * here from the simulating thread only (Runner runs at --jobs 1).
 */
struct Trace
{
    Span gen;      ///< TraceGen::next, every core of every run.
    Span act;      ///< Tracker::onActivation.
    Span throttle; ///< Tracker::throttleUntil.
    Span hook;     ///< Tracker::onPeriodic + onRefreshWindow.
    /// Host microseconds between consecutive tREFI boundaries.
    std::vector<double> trefiUs;
    std::uint64_t trefiSamples = 0; ///< Clock reads taken for trefiUs.

    /// ACTs of the first traced tracker, for the GroundTruth replay.
    std::vector<dapper::ActEvent> acts;
    std::size_t actCap = 0; ///< 0: capture nothing.
    /// Config the captured tracker was built with (after adjustConfig).
    std::optional<dapper::SysConfig> actCfg;
    int trackersBuilt = 0;

    /// Self-test only: busy-wait this long inside every onActivation.
    std::uint64_t busyDelayNs = 0;
};

/** One benchmark workload (README.md says why each was chosen). */
struct Workload
{
    std::string name;
    bool grid = false;
    /// Single cell: per-core benign list, attack and tracker names.
    std::vector<std::string> benign;
    std::string attack;
    std::string tracker;
    int windows = 1; ///< Simulated (scaled) tREFW windows per run.
};

const std::vector<Workload> &workloads();
/** Throws std::invalid_argument for an unknown name. */
const Workload &workload(const std::string &name);

/** Simulation seeds the pins cover; --seed N selects one of them. */
constexpr int kSimSeeds = 8;
std::uint64_t simSeedFor(long long seed);

/** Default SysConfig (4 cores, N_RH = 500) under @p simSeed. */
dapper::SysConfig benchConfig(std::uint64_t simSeed);

/** Order-sensitive FNV-1a, the scheme bench/micro_core.cc uses. */
class Fnv
{
  public:
    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 1099511628211ull;
        }
    }
    void mixF64(double v);
    void mixStr(const std::string &s);
    /** Every entry name and value bit pattern, then every series. */
    void mixDict(const dapper::StatDict &d);
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 1469598103934665603ull;
};

/** Work counts read from the exported StatDicts of one operation. */
struct Counts
{
    std::uint64_t instructions = 0; ///< Retired, all cores, all runs.
    std::uint64_t memRequests = 0;  ///< DRAM reads + writes.
    std::uint64_t memActs = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t counterRequests = 0;
    std::uint64_t blockedBankTicks = 0;
    double readLatencySum = 0.0;
    std::uint64_t readCount = 0;
    std::uint64_t llcHits = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t llcCounterAccesses = 0;
    std::uint64_t llcWritebacks = 0;
    std::uint64_t gtActs = 0;
    std::uint64_t mitigations = 0;
    std::vector<double> benignIpc; ///< One per run shown in the dict.

    void add(const dapper::StatDict &d, int attackerCore);
};

/** Outcome of one operation (one cell, or the whole grid). */
struct OpResult
{
    std::uint64_t fingerprint = 0;
    double simS = 0.0;   ///< System::run (cells) or Runner::run (grid).
    double wallS = 0.0;  ///< The whole operation.
    Counts counts;
    /// Every dapper-h run ended with gt.violations == 0.
    bool gtClean = true;
    std::size_t runnerCells = 1;
    std::size_t baselineRuns = 0;
};

/**
 * Run one operation of @p w. With @p trace, generators and trackers are
 * wrapped in timing decorators and a host-clock probe is attached; the
 * fingerprint must not change. On tracker-grid the instruction count
 * adds the pinned baseline instructions, which Runner does not expose.
 */
OpResult runOp(const Workload &w, const dapper::SysConfig &cfg,
               Trace *trace = nullptr);

/** Build (and drop) every System one operation of @p w runs; returns
 *  host seconds. */
double setupOnce(const Workload &w, const dapper::SysConfig &cfg);

/** Pinned fingerprint for (workload, simSeed), if any. */
std::optional<std::uint64_t> pinnedFingerprint(const std::string &workload,
                                               std::uint64_t simSeed);

/** Print pins.inc for every workload and sim seed, computed through
 *  runOnce / Runner (not the benchmark's own cell runner). */
void writePins(std::FILE *out);

/** Host cost of the tracing itself, measured on empty spans. */
struct ClockCost
{
    /// What a span around an empty callee records (about one read).
    double spanNs = 0.0;
    /// Everything one timed call adds: both reads and the bookkeeping.
    double callNs = 0.0;
};

/** Fastest of several batches, so a preempted batch cannot inflate it. */
ClockCost calibrateClock();

/** Host seconds of one traced operation, split by layer. */
struct LayerTimes
{
    double genS = 0.0;     ///< TraceGen::next.
    double actS = 0.0;     ///< onActivation + throttleUntil.
    double hookS = 0.0;    ///< onPeriodic + onRefreshWindow.
    double timerS = 0.0;   ///< The tracing clock reads themselves.
    /// simS minus all of the above: cpu, cache, mem, GroundTruth and
    /// the event loop, which cannot be told apart from outside.
    double engineSelfS = 0.0;
};

/**
 * Split @p simS (the traced System::run / Runner::run seconds): every
 * span loses the empty-span cost, and the engine's share loses the
 * whole instrumentation cost of every timed call and tREFI sample.
 */
LayerTimes layerTimes(const Trace &trace, double simS,
                      const ClockCost &clock);

/**
 * Replay the captured ACT stream through a standalone GroundTruth
 * (auto-refresh per rank every tREFI, window boundary every tREFW);
 * returns host ns per ACT, or 0 with nothing captured.
 */
double replayGroundTruthNsPerAct(const Trace &trace);

double median(std::vector<double> v);

} // namespace dbench

#endif // DAPPER_BENCH_HARNESS_HH
