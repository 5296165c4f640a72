/**
 * @file
 * Shared helpers for the per-figure/table bench binaries: flag parsing
 * (--full for the complete 57-workload population, --nrh / --scale
 * overrides, registry-backed --tracker / --attack cell filters,
 * --json / --csv structured output), Scenario construction, suite
 * aggregation, and table printing.
 *
 * Benches declare a ScenarioGrid (axes + labels), execute it through a
 * Runner, and print from the returned ResultTable; finish() emits the
 * machine-readable rendering bench/run_all.sh collects. Since the
 * stats API, that rendering carries the full per-component telemetry
 * dict ("stats") and the tREFI probe time series ("series") for every
 * scenario — bench tables keep printing the typed RunResult fields,
 * but analysis scripts can read any exported counter without a bench
 * edit (table.statValues("llc.misses"), statSeries(row, "series.ipc")).
 */

#ifndef DAPPER_BENCH_BENCH_UTIL_HH
#define DAPPER_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/common/stats.hh"
#include "src/sim/fleet/fleet.hh"
#include "src/sim/runner.hh"
#include "src/workload/benign.hh"
#include "src/workload/workload_registry.hh"

namespace dapper {
namespace benchutil {

struct Options
{
    bool full = false;       ///< All 57 workloads (default: subset).
    int nRH = 500;
    /// Window compression (DESIGN.md §1). At 16 trackers still act on
    /// benign workloads, but less often than at scale 1, so overheads
    /// read low (DESIGN.md §1's table: Fig. 11's worst case 1.35%
    /// against 4.47% at scale 1).
    double timeScale = 16.0;
    int windows = 2;         ///< Simulated (scaled) tREFW windows.
    int jobs = 0;            ///< Sweep worker threads (0: auto).
    int repeat = 1;          ///< Timing repetitions (median-of-N).
    std::string trackerFilter; ///< Registry name: keep matching cells.
    std::string attackFilter;  ///< Registry name: keep matching cells.
    /// WorkloadRegistry name (--workload): restrict the population to
    /// one workload — synthetic or trace-replay.
    std::string workloadFilter;
    std::string jsonPath;    ///< Structured results (ResultTable JSON).
    std::string csvPath;     ///< Structured results (ResultTable CSV).
    /// Fleet campaign directory (--fleet): run the grid through the
    /// crash-safe dapper-fleet coordinator instead of an in-process
    /// Runner. Resumable: re-running skips journaled cells.
    std::string fleetDir;
    int shards = 0;          ///< Fleet worker processes (0: auto).
    double watchdogSec = 0.0; ///< Fleet per-cell watchdog (0: off).
    int maxAttempts = 3;     ///< Fleet attempts before quarantine.
    int seeds = 1;           ///< Monte-Carlo replicas per cell.
};

[[noreturn]] inline void
usage(const char *prog, const char *error, int exitCode = 2)
{
    if (error != nullptr)
        std::fprintf(stderr, "%s: %s\n", prog, error);
    std::fprintf(stderr,
                 "usage: %s [options]\n"
                 "  --full           run all 57 workloads (default: "
                 "per-suite subset)\n"
                 "  --nrh N          RowHammer threshold (>= 1, default "
                 "500)\n"
                 "  --scale X        window time-compression factor (> 0, "
                 "default 16)\n"
                 "  --windows N      simulated (scaled) tREFW windows "
                 "(>= 1, default 2)\n"
                 "  --jobs N         sweep worker threads (>= 1, default: "
                 "DAPPER_JOBS or hardware)\n"
                 "  --repeat N       timing repetitions; benches that "
                 "report wall-clock\n"
                 "                   take the median of N runs and assert "
                 "identical results\n"
                 "  --tracker NAME   restrict the tracker table cells to "
                 "one tracker\n"
                 "  --attack NAME    restrict the attack table cells to "
                 "one attack\n"
                 "  --workload NAME  restrict the workload population to "
                 "one registered\n"
                 "                   workload (synthetic or DTR trace "
                 "replay)\n"
                 "  --json FILE      also write results as JSON (incl. "
                 "per-component stats\n"
                 "                   and tREFI time series)\n"
                 "  --csv FILE       also write results as CSV (stat "
                 "columns appended)\n"
                 "  --fleet DIR      run the grid through the crash-safe "
                 "fleet runner;\n"
                 "                   DIR holds shard journals + "
                 "manifest.json and makes\n"
                 "                   the run resumable (completed cells "
                 "are skipped)\n"
                 "  --shards N       fleet worker processes (>= 1, "
                 "default: auto)\n"
                 "  --watchdog S     fleet per-cell wall-clock limit in "
                 "seconds (> 0;\n"
                 "                   default: off)\n"
                 "  --max-attempts N fleet attempts before a cell is "
                 "quarantined\n"
                 "                   (>= 1, default 3)\n"
                 "  --seeds N        Monte-Carlo seed replicas per cell "
                 "(>= 1, default 1);\n"
                 "                   benches print mean +/- 95%% CI "
                 "columns\n",
                 prog);
    std::fprintf(stderr, "trackers:");
    for (const auto &name : TrackerRegistry::instance().names())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\nattacks :");
    for (const auto &name : AttackRegistry::instance().names())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\nworkloads (%zu):",
                 WorkloadRegistry::instance().names().size());
    for (const auto &name : WorkloadRegistry::instance().names())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    std::exit(exitCode);
}

inline Options
parse(int argc, char **argv)
{
    Options opt;
    const char *prog = argc > 0 ? argv[0] : "bench";
    auto value = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage(prog, "missing value for flag");
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--full") == 0) {
            opt.full = true;
        } else if (std::strcmp(argv[i], "--nrh") == 0) {
            opt.nRH = std::atoi(value(i));
            if (opt.nRH < 1)
                usage(prog, "--nrh must be >= 1");
        } else if (std::strcmp(argv[i], "--scale") == 0) {
            opt.timeScale = std::atof(value(i));
            if (opt.timeScale <= 0.0)
                usage(prog, "--scale must be > 0");
        } else if (std::strcmp(argv[i], "--windows") == 0) {
            opt.windows = std::atoi(value(i));
            if (opt.windows < 1)
                usage(prog, "--windows must be >= 1");
        } else if (std::strcmp(argv[i], "--jobs") == 0) {
            opt.jobs = std::atoi(value(i));
            if (opt.jobs < 1)
                usage(prog, "--jobs must be >= 1");
        } else if (std::strcmp(argv[i], "--repeat") == 0) {
            opt.repeat = std::atoi(value(i));
            if (opt.repeat < 1)
                usage(prog, "--repeat must be >= 1");
        } else if (std::strcmp(argv[i], "--tracker") == 0) {
            opt.trackerFilter = value(i);
            if (TrackerRegistry::instance().find(opt.trackerFilter) ==
                nullptr)
                usage(prog, "unknown --tracker (see list below)");
        } else if (std::strcmp(argv[i], "--attack") == 0) {
            opt.attackFilter = value(i);
            if (AttackRegistry::instance().find(opt.attackFilter) ==
                nullptr)
                usage(prog, "unknown --attack (see list below)");
        } else if (std::strcmp(argv[i], "--workload") == 0) {
            opt.workloadFilter = value(i);
            if (WorkloadRegistry::instance().find(opt.workloadFilter) ==
                nullptr)
                usage(prog, "unknown --workload (see list below)");
        } else if (std::strcmp(argv[i], "--json") == 0) {
            opt.jsonPath = value(i);
        } else if (std::strcmp(argv[i], "--csv") == 0) {
            opt.csvPath = value(i);
        } else if (std::strcmp(argv[i], "--fleet") == 0) {
            opt.fleetDir = value(i);
        } else if (std::strcmp(argv[i], "--shards") == 0) {
            opt.shards = std::atoi(value(i));
            if (opt.shards < 1)
                usage(prog, "--shards must be >= 1");
        } else if (std::strcmp(argv[i], "--watchdog") == 0) {
            opt.watchdogSec = std::atof(value(i));
            if (opt.watchdogSec <= 0.0)
                usage(prog, "--watchdog must be > 0");
        } else if (std::strcmp(argv[i], "--max-attempts") == 0) {
            opt.maxAttempts = std::atoi(value(i));
            if (opt.maxAttempts < 1)
                usage(prog, "--max-attempts must be >= 1");
        } else if (std::strcmp(argv[i], "--seeds") == 0) {
            opt.seeds = std::atoi(value(i));
            if (opt.seeds < 1)
                usage(prog, "--seeds must be >= 1");
        } else if (std::strcmp(argv[i], "--help") == 0 ||
                   std::strcmp(argv[i], "-h") == 0) {
            usage(prog, nullptr, 0);
        } else {
            usage(prog, "unknown flag");
        }
    }
    return opt;
}

inline SysConfig
makeConfig(const Options &opt)
{
    SysConfig cfg;
    cfg.nRH = opt.nRH;
    cfg.timeScale = opt.timeScale;
    return cfg;
}

/** Scenario seeded with the command-line config and horizon — the base
 *  every bench grid builds on. */
inline Scenario
baseScenario(const Options &opt)
{
    return Scenario().config(makeConfig(opt)).windows(opt.windows);
}

/** Append the --seeds Monte-Carlo replica axis (innermost, so
 *  ResultTable::seedSummaries can reduce consecutive groups). */
inline ScenarioGrid &
applySeeds(const Options &opt, ScenarioGrid &grid)
{
    if (opt.seeds > 1)
        grid.seeds(opt.seeds);
    return grid;
}

/**
 * Execute a bench grid: in-process Runner by default, the dapper-fleet
 * coordinator when --fleet DIR was given. Fleet runs are crash-safe and
 * resumable. A campaign with quarantined cells but every cell otherwise
 * attempted still publishes its table — quarantined cells render as
 * explicit "--" / null gaps with a "quarantined" marker, so partial
 * results are not lost. A drained campaign (SIGINT before every cell
 * ran) cannot produce the table; it reports progress and exits 3 —
 * re-run with the same --fleet DIR to continue where it stopped.
 */
inline ResultTable
runGrid(const Options &opt, const ScenarioGrid &grid, const char *prog)
{
    if (opt.fleetDir.empty()) {
        Runner runner(opt.jobs);
        return runner.run(grid);
    }
    FleetOptions fopt;
    fopt.dir = opt.fleetDir;
    fopt.shards = opt.shards;
    fopt.watchdogSec = opt.watchdogSec;
    fopt.maxAttempts = opt.maxAttempts;
    FleetCampaign campaign(fopt);
    const FleetReport report = campaign.run(grid);
    std::fprintf(stderr,
                 "fleet: %zu/%zu cells complete (%zu resumed, %zu "
                 "executed, %zu timeouts, %zu crashes, %zu retries, %zu "
                 "quarantined)%s\n",
                 report.completed, report.uniqueCells, report.resumed,
                 report.executed, report.timeouts, report.crashes,
                 report.retries, report.quarantined.size(),
                 report.drained ? " [drained]" : "");
    for (const FleetQuarantineEntry &entry : report.quarantined)
        std::fprintf(stderr, "fleet: quarantined: %s (%u attempts: %s)\n",
                     entry.label.c_str(), entry.attempts,
                     entry.lastError.c_str());
    if (!report.complete()) {
        if (!report.drained && report.accounted()) {
            std::fprintf(stderr,
                         "%s: publishing with %zu quarantined cell(s) "
                         "as explicit table gaps\n",
                         prog, report.quarantined.size());
            return report.table;
        }
        std::fprintf(stderr,
                     "%s: fleet campaign incomplete; re-run with "
                     "--fleet %s to resume\n",
                     prog, opt.fleetDir.c_str());
        std::exit(3);
    }
    return report.table;
}

/**
 * How filterCells should treat each --tracker / --attack dimension for
 * one cell list. A bench whose tracker or attack is pinned in the base
 * scenario (not varied by any cell axis) names that fixed value here:
 * a filter naming it is a no-op, anything else is a usage error. A
 * dimension another cell axis of the same bench varies is marked
 * not-applied so this list doesn't reject its filter.
 */
struct CellFilterSpec
{
    bool applyTracker = true;
    bool applyAttack = true;
    std::string fixedTracker; ///< Base-scenario tracker, if pinned.
    std::string fixedAttack;  ///< Base-scenario attack, if pinned.

    /** The bench's tracker is pinned in the base scenario. */
    static CellFilterSpec
    pinTracker(std::string name)
    {
        CellFilterSpec spec;
        spec.fixedTracker = std::move(name);
        return spec;
    }

    /** The bench's attack is pinned in the base scenario. */
    static CellFilterSpec
    pinAttack(std::string name)
    {
        CellFilterSpec spec;
        spec.fixedAttack = std::move(name);
        return spec;
    }

    /** This list is a tracker axis; another axis varies the attack. */
    static CellFilterSpec
    trackerAxisOnly()
    {
        CellFilterSpec spec;
        spec.applyAttack = false;
        return spec;
    }

    /** This list is an attack axis; another axis varies the tracker. */
    static CellFilterSpec
    attackAxisOnly()
    {
        CellFilterSpec spec;
        spec.applyTracker = false;
        return spec;
    }
};

/**
 * Apply --tracker / --attack to a bench's table cells: keep only the
 * matching cells. A filter naming a tracker/attack the bench's table
 * cannot show is a usage error, never a silent no-op.
 */
inline std::vector<ScenarioCell>
filterCells(const Options &opt, std::vector<ScenarioCell> cells,
            const char *prog, const CellFilterSpec &spec = {})
{
    auto apply = [&](const std::string &filter, const char *flag,
                     const std::string &fixed, auto field) {
        if (filter.empty())
            return;
        bool carries = false;
        for (const ScenarioCell &cell : cells)
            carries = carries || !field(cell).empty();
        if (!carries) {
            // The dimension is pinned in the base scenario: only its
            // own name passes (and changes nothing).
            if (filter != fixed)
                usage(prog, (std::string(flag) +
                             " matches no table cell of this bench")
                                .c_str());
            return;
        }
        std::vector<ScenarioCell> kept;
        for (const ScenarioCell &cell : cells)
            if (field(cell) == filter)
                kept.push_back(cell);
        if (kept.empty())
            usage(prog, (std::string(flag) +
                         " matches no table cell of this bench")
                            .c_str());
        cells = std::move(kept);
    };
    if (spec.applyTracker)
        apply(opt.trackerFilter, "--tracker", spec.fixedTracker,
              [](const ScenarioCell &c) -> const std::string & {
                  return c.tracker;
              });
    if (spec.applyAttack)
        apply(opt.attackFilter, "--attack", spec.fixedAttack,
              [](const ScenarioCell &c) -> const std::string & {
                  return c.attack;
              });
    return cells;
}

/** For benches whose table is a fixed comparison (tab04's none-vs-
 *  DAPPER-H energy ratios, micro_controller's bare controller): the
 *  filters cannot apply, so naming one is a usage error. */
inline void
rejectFilters(const Options &opt, const char *prog)
{
    if (!opt.trackerFilter.empty() || !opt.attackFilter.empty())
        usage(prog,
              "this bench's table is fixed; --tracker/--attack are not "
              "supported here");
}

/**
 * Median-of-N timing: run @p body opt.repeat times, print each rep's
 * wall-clock to stderr (stdout stays deterministic, so two builds'
 * outputs can be diffed), and return the median seconds. @p body must
 * be deterministic; benches using this assert that every repetition
 * reproduces the first rep's results. Honest-comparison rule: when
 * comparing two builds, interleave their runs in one session on one
 * machine (A B A B ...), never across days or hosts (see
 * scripts/profile.sh).
 */
template <typename Body>
inline double
timedMedian(int repeat, Body &&body)
{
    std::vector<double> secs;
    secs.reserve(static_cast<std::size_t>(repeat));
    for (int rep = 0; rep < repeat; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        body(rep);
        const auto t1 = std::chrono::steady_clock::now();
        const double s =
            std::chrono::duration<double>(t1 - t0).count();
        secs.push_back(s);
        if (repeat > 1)
            std::fprintf(stderr, "  rep %d/%d: %.3fs\n", rep + 1, repeat,
                         s);
    }
    std::sort(secs.begin(), secs.end());
    return secs[secs.size() / 2];
}

inline Tick
horizonOf(const SysConfig &cfg, const Options &opt)
{
    return static_cast<Tick>(opt.windows) * cfg.tREFW();
}

/** Workload population: per-suite subset by default, all 57 with
 *  --full, exactly the named workload with --workload. */
inline std::vector<std::string>
population(const Options &opt, int perSuite = 2)
{
    if (!opt.workloadFilter.empty()) {
        // Suite-population benches group results with findWorkload()
        // metadata (suite, rbmpki), which trace workloads don't carry.
        if (WorkloadRegistry::instance().at(opt.workloadFilter).isTrace)
            usage("bench",
                  "--workload: this bench's population is synthetic-"
                  "only; trace workloads run via trace-aware benches "
                  "(fig_multiprog, trace_tool replay)");
        return {opt.workloadFilter};
    }
    if (opt.full)
        return workloadsInSuite("All");
    // The most attack-sensitive (highest-RBMPKI) workloads per suite plus
    // one compute-bound control.
    static const char *kSuites[] = {"SPEC2K6", "SPEC2K17", "TPC",
                                    "Hadoop", "MediaBench", "YCSB"};
    std::vector<std::string> out;
    for (const char *suite : kSuites) {
        std::vector<std::pair<double, std::string>> ranked;
        for (const auto &name : workloadsInSuite(suite))
            ranked.emplace_back(findWorkload(name).rbmpki(), name);
        std::sort(ranked.rbegin(), ranked.rend());
        for (int i = 0; i < perSuite && i < static_cast<int>(ranked.size());
             ++i)
            out.push_back(ranked[static_cast<std::size_t>(i)].second);
    }
    out.push_back("456.hmmer"); // Compute-bound control.
    return out;
}

/**
 * One probe time series of a scenario result, by full exported name
 * ("series.ipc", "series.mitigationsPerTrefi"); throws
 * std::out_of_range when absent so a typo cannot read as "no data".
 */
inline const std::vector<double> &
statSeries(const ScenarioResult &row, const std::string &name)
{
    const StatSeries *series = row.run.stats.findSeries(name);
    if (series == nullptr)
        throw std::out_of_range("no series '" + name + "'");
    return series->values;
}

/**
 * Geomean of @p count consecutive sweep results starting at @p offset —
 * the common "one grid cell group per printed column" reduction.
 */
inline double
geomeanSlice(const std::vector<double> &values, std::size_t offset,
             std::size_t count)
{
    const auto begin =
        values.begin() + static_cast<std::ptrdiff_t>(offset);
    return geomean(std::vector<double>(
        begin, begin + static_cast<std::ptrdiff_t>(count)));
}

/** Geomean of per-workload values grouped by suite (plus "All"). */
inline std::map<std::string, double>
bySuite(const std::map<std::string, double> &perWorkload)
{
    std::map<std::string, std::vector<double>> groups;
    for (const auto &[name, value] : perWorkload) {
        groups[findWorkload(name).suite].push_back(value);
        groups["All"].push_back(value);
    }
    std::map<std::string, double> out;
    for (const auto &[suite, values] : groups)
        out[suite] = geomean(values);
    return out;
}

inline void
printHeader(const std::string &title, const SysConfig &cfg)
{
    std::printf("=== %s ===\n", title.c_str());
    std::printf("config: %s\n\n", cfg.summary().c_str());
}

/** Emit the structured renderings requested on the command line. */
inline void
finish(const Options &opt, const std::string &benchName,
       const ResultTable &table)
{
    if (!opt.jsonPath.empty()) {
        std::FILE *out = std::fopen(opt.jsonPath.c_str(), "w");
        if (out == nullptr) {
            std::perror(opt.jsonPath.c_str());
            std::exit(1);
        }
        table.writeJson(out, benchName);
        std::fclose(out);
    }
    if (!opt.csvPath.empty()) {
        std::FILE *out = std::fopen(opt.csvPath.c_str(), "w");
        if (out == nullptr) {
            std::perror(opt.csvPath.c_str());
            std::exit(1);
        }
        table.writeCsv(out);
        std::fclose(out);
    }
}

} // namespace benchutil
} // namespace dapper

#endif // DAPPER_BENCH_BENCH_UTIL_HH
