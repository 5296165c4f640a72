/**
 * @file
 * Shared helpers for the per-figure/table bench binaries: flag parsing,
 * Scenario construction, the one grid executor, suite aggregation, and
 * table printing.
 *
 * Every grid bench takes one path: parse() the flags, resolve the
 * workloads with population() and the table cells with filterCells(),
 * build a ScenarioGrid on baseScenario(), execute it with runGrid() —
 * an in-process Runner, or the crash-safe dapper-fleet coordinator
 * under --fleet DIR, with the --seeds replica axis added innermost —
 * read each cell through seedMeans() (or seedSummaries() for mean±CI
 * columns), and finish() the --json / --csv rendering bench/run_all.sh
 * collects. That rendering carries every replica's full telemetry dict
 * ("stats") and tREFI probe series ("series").
 *
 * A flag either takes effect or is rejected: each binary hands parse()
 * the flag groups it honours, and any other flag exits 2 with usage.
 */

#ifndef DAPPER_BENCH_BENCH_UTIL_HH
#define DAPPER_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <climits>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
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

/** Flag groups a bench binary can honour (parse()'s @p accepted). */
enum FlagGroup : unsigned
{
    kConfigFlags = 1u << 0,  ///< --scale --windows
    kFullFlag = 1u << 1,     ///< --full
    kWorkloadFlag = 1u << 2, ///< --workload
    kFilterFlags = 1u << 3,  ///< --tracker --attack
    /// --jobs --json --csv --fleet --shards --watchdog --max-attempts:
    /// runGrid's executor options and finish()'s renderings.
    kGridFlags = 1u << 4,
    kSeedsFlag = 1u << 5,    ///< --seeds
    /// --nrh: a bench that sweeps N_RH itself (grid.nRH) rejects it.
    kNrhFlag = 1u << 6,
};

/// A bench whose table comes from runGrid (parse()'s default).
constexpr unsigned kGridBench = kConfigFlags | kNrhFlag | kFullFlag |
                                kWorkloadFlag | kFilterFlags | kGridFlags |
                                kSeedsFlag;

/** --help text of one flag group's flags. */
struct FlagHelp
{
    unsigned group;
    const char *text;
};

inline constexpr FlagHelp kFlagHelp[] = {
    {kFullFlag, "  --full           run all 57 workloads (default: the "
                "bench's own list)\n"},
    {kNrhFlag, "  --nrh N          RowHammer threshold (>= 4, default "
               "500)\n"},
    {kConfigFlags, "  --scale X        window time-compression factor "
                   "(>= 1, default 16)\n"
                   "  --windows N      simulated (scaled) tREFW windows "
                   "(>= 1, default 2)\n"},
    {kGridFlags, "  --jobs N         sweep worker threads (>= 1, "
                 "default: DAPPER_JOBS or hardware)\n"},
    {kFilterFlags, "  --tracker NAME   restrict the tracker table cells "
                   "to one tracker\n"
                   "  --attack NAME    restrict the attack table cells "
                   "to one attack\n"},
    {kWorkloadFlag, "  --workload NAME  run only this registered "
                    "workload (beats --full)\n"},
    {kGridFlags,
     "  --json FILE      also write results as JSON (incl. "
     "per-component stats\n"
     "                   and tREFI time series)\n"
     "  --csv FILE       also write results as CSV (stat columns "
     "appended)\n"
     "  --fleet DIR      run the grid through the crash-safe fleet "
     "runner;\n"
     "                   DIR holds shard journals + manifest.json and "
     "makes\n"
     "                   the run resumable (completed cells are "
     "skipped)\n"
     "  --shards N       fleet worker processes (>= 1, default: auto)\n"
     "  --watchdog S     fleet per-cell wall-clock limit in seconds "
     "(> 0;\n"
     "                   default: off)\n"
     "  --max-attempts N fleet attempts before a cell is quarantined\n"
     "                   (>= 1, default 3)\n"},
    {kSeedsFlag, "  --seeds N        Monte-Carlo seed replicas per cell "
                 "(>= 1, default 1);\n"
                 "                   tables print seed means or "
                 "mean+/-CI, JSON holds\n"
                 "                   every replica\n"},
};

/** Print @p error (if any) and the usage of the @p accepted flag
 *  groups, then exit with @p exitCode. */
[[noreturn]] inline void
usage(const char *prog, const char *error, unsigned accepted = kGridBench,
      int exitCode = 2)
{
    if (error != nullptr)
        std::fprintf(stderr, "%s: %s\n", prog, error);
    std::fprintf(stderr, "usage: %s [options]\n", prog);
    for (const FlagHelp &flag : kFlagHelp)
        if ((flag.group & accepted) != 0)
            std::fputs(flag.text, stderr);
    if ((accepted & kFilterFlags) != 0) {
        std::fprintf(stderr, "trackers:");
        for (const auto &name : TrackerRegistry::instance().names())
            std::fprintf(stderr, " %s", name.c_str());
        std::fprintf(stderr, "\nattacks :");
        for (const auto &name : AttackRegistry::instance().names())
            std::fprintf(stderr, " %s", name.c_str());
        std::fprintf(stderr, "\n");
    }
    if ((accepted & kWorkloadFlag) != 0) {
        std::fprintf(stderr, "workloads (%zu):",
                     WorkloadRegistry::instance().names().size());
        for (const auto &name : WorkloadRegistry::instance().names())
            std::fprintf(stderr, " %s", name.c_str());
        std::fprintf(stderr, "\n");
    }
    std::exit(exitCode);
}

inline SysConfig
makeConfig(const Options &opt)
{
    SysConfig cfg;
    cfg.nRH = opt.nRH;
    cfg.timeScale = opt.timeScale;
    return cfg;
}

/**
 * Parse a bench's command line. A flag outside the @p accepted groups
 * is a usage error (exit 2), so no binary takes a flag it would ignore.
 * So is a numeric value with trailing characters, and a --nrh / --scale
 * that SysConfig::validate rejects: every such input exits 2 with usage
 * before any simulation starts.
 */
inline Options
parse(int argc, char **argv, unsigned accepted = kGridBench)
{
    Options opt;
    const char *prog = argc > 0 ? argv[0] : "bench";
    auto fail = [&](const std::string &error) {
        usage(prog, error.c_str(), accepted);
    };
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        // Whether arg is @p flag; a flag this bench cannot honour fails.
        auto is = [&](const char *flag, unsigned group) {
            if (std::strcmp(arg, flag) != 0)
                return false;
            if ((accepted & group) == 0)
                fail(std::string(flag) + " is not supported by this bench");
            return true;
        };
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                fail(std::string("missing value for ") + arg);
            return argv[++i];
        };
        // The next argument, whole, as an int >= 1 (--nrh's tighter
        // bound is validate's, below).
        auto intValue = [&]() {
            const char *text = value();
            char *end = nullptr;
            const long v = std::strtol(text, &end, 10);
            if (end == text || *end != '\0' || v < 1 || v > INT_MAX)
                fail(std::string(arg) + ": not an integer >= 1: " + text);
            return static_cast<int>(v);
        };
        // The next argument, whole, as a finite double.
        auto realValue = [&]() {
            const char *text = value();
            char *end = nullptr;
            const double v = std::strtod(text, &end);
            if (end == text || *end != '\0' || !std::isfinite(v))
                fail(std::string(arg) + ": not a finite number: " + text);
            return v;
        };
        if (is("--full", kFullFlag)) {
            opt.full = true;
        } else if (is("--nrh", kNrhFlag)) {
            opt.nRH = intValue();
        } else if (is("--scale", kConfigFlags)) {
            opt.timeScale = realValue();
        } else if (is("--windows", kConfigFlags)) {
            opt.windows = intValue();
        } else if (is("--jobs", kGridFlags)) {
            opt.jobs = intValue();
        } else if (is("--tracker", kFilterFlags)) {
            opt.trackerFilter = value();
            if (TrackerRegistry::instance().find(opt.trackerFilter) ==
                nullptr)
                fail("unknown --tracker (see list below)");
        } else if (is("--attack", kFilterFlags)) {
            opt.attackFilter = value();
            if (AttackRegistry::instance().find(opt.attackFilter) ==
                nullptr)
                fail("unknown --attack (see list below)");
        } else if (is("--workload", kWorkloadFlag)) {
            opt.workloadFilter = value();
            if (WorkloadRegistry::instance().find(opt.workloadFilter) ==
                nullptr)
                fail("unknown --workload (see list below)");
        } else if (is("--json", kGridFlags)) {
            opt.jsonPath = value();
        } else if (is("--csv", kGridFlags)) {
            opt.csvPath = value();
        } else if (is("--fleet", kGridFlags)) {
            opt.fleetDir = value();
        } else if (is("--shards", kGridFlags)) {
            opt.shards = intValue();
        } else if (is("--watchdog", kGridFlags)) {
            opt.watchdogSec = realValue();
            if (opt.watchdogSec <= 0.0)
                fail("--watchdog must be > 0");
        } else if (is("--max-attempts", kGridFlags)) {
            opt.maxAttempts = intValue();
        } else if (is("--seeds", kSeedsFlag)) {
            opt.seeds = intValue();
        } else if (std::strcmp(arg, "--help") == 0 ||
                   std::strcmp(arg, "-h") == 0) {
            usage(prog, nullptr, accepted, 0);
        } else {
            fail(std::string("unknown flag ") + arg);
        }
    }
    // The simulator's own bounds on --nrh and --scale (nRH >= 4,
    // timeScale >= 1), checked here so a bad value is a usage error
    // rather than an exception out of the first System.
    try {
        makeConfig(opt).validate();
    } catch (const std::invalid_argument &e) {
        fail(std::string("--nrh / --scale: ") + e.what());
    }
    return opt;
}

/** Scenario seeded with the command-line config and horizon — the base
 *  every bench grid builds on. */
inline Scenario
baseScenario(const Options &opt)
{
    return Scenario().config(makeConfig(opt)).windows(opt.windows);
}

/** The suite benches' default population: the two most attack-
 *  sensitive (highest-RBMPKI) workloads per suite plus one
 *  compute-bound control. */
inline std::vector<std::string>
suiteSubset()
{
    static const char *kSuites[] = {"SPEC2K6", "SPEC2K17", "TPC",
                                    "Hadoop", "MediaBench", "YCSB"};
    std::vector<std::string> out;
    for (const char *suite : kSuites) {
        std::vector<std::pair<double, std::string>> ranked;
        for (const auto &name : workloadsInSuite(suite))
            ranked.emplace_back(findWorkload(name).rbmpki(), name);
        std::sort(ranked.rbegin(), ranked.rend());
        for (std::size_t i = 0; i < 2 && i < ranked.size(); ++i)
            out.push_back(ranked[i].second);
    }
    out.push_back("456.hmmer"); // Compute-bound control.
    return out;
}

/**
 * A bench's workload population, in one resolution order: exactly the
 * --workload (synthetic or trace replay), else all 57 with --full, else
 * @p fallback (the bench's own default list).
 */
inline std::vector<std::string>
population(const Options &opt,
           std::vector<std::string> fallback = suiteSubset())
{
    if (!opt.workloadFilter.empty())
        return {opt.workloadFilter};
    if (opt.full)
        return workloadsInSuite("All");
    return fallback;
}

/**
 * population() with suiteSubset() as the fallback, for the benches that
 * label rows with findWorkload() metadata (suite, RBMPKI). Trace
 * workloads carry none, so a trace --workload exits 2 with usage,
 * naming @p prog.
 */
inline std::vector<std::string>
suitePopulation(const Options &opt, const char *prog)
{
    if (!opt.workloadFilter.empty() &&
        WorkloadRegistry::instance().at(opt.workloadFilter).isTrace)
        usage(prog,
              "--workload: this bench reads suite / RBMPKI metadata, "
              "which trace workloads lack; run traces through a "
              "geomean bench (e.g. fig14_blockhammer), fig_multiprog or "
              "trace_tool replay",
              kGridBench);
    return population(opt);
}

/**
 * Grid over @p base with @p workloads as its first (outermost) axis,
 * for benches whose default table is a single workload: a one-workload
 * population is set on the base instead, so its rows keep the labels
 * of that fixed table.
 */
inline ScenarioGrid
workloadGrid(Scenario base, const std::vector<std::string> &workloads)
{
    if (workloads.size() == 1)
        return ScenarioGrid(base.workload(workloads.front()));
    ScenarioGrid grid(std::move(base));
    grid.workloads(workloads);
    return grid;
}

/** The Figs. 1 / 3 / 4 / 5 columns: cache thrashing on an unprotected
 *  system, then each scalable tracker under its tailored Perf-Attack. */
inline std::vector<ScenarioCell>
perfAttackColumns()
{
    return {
        {"CacheThrash", "none", "cache-thrash", {}},
        {"Hydra", "hydra", "hydra-rcc", {}},
        {"START", "start", "start-stream", {}},
        {"ABACUS", "abacus", "abacus-spill", {}},
        {"CoMeT", "comet", "comet-rat", {}},
    };
}

/**
 * Apply --tracker / --attack to the table cells of a bench whose grid
 * is built on @p base and crosses @p lists. Each filter keeps the
 * matching cells of every list that varies its dimension. When no list
 * varies it, @p base pins it: the pinned name is a no-op and any other
 * name is a usage error, as is a filter that empties a list.
 */
template <std::same_as<std::vector<ScenarioCell>>... Lists>
inline void
filterCells(const Options &opt, const Scenario &base, const char *prog,
            Lists &...lists)
{
    const std::vector<std::vector<ScenarioCell> *> all{&lists...};
    auto apply = [&](const std::string &filter, const char *flag,
                     const std::string &pinned,
                     std::string ScenarioCell::*field) {
        if (filter.empty())
            return;
        const std::string error =
            std::string(flag) + " matches no table cell of this bench";
        bool varied = false;
        for (std::vector<ScenarioCell> *cells : all) {
            if (std::all_of(cells->begin(), cells->end(),
                            [&](const ScenarioCell &c) {
                                return (c.*field).empty();
                            }))
                continue;
            varied = true;
            std::erase_if(*cells, [&](const ScenarioCell &c) {
                return c.*field != filter;
            });
            if (cells->empty())
                usage(prog, error.c_str());
        }
        if (!varied && filter != pinned)
            usage(prog, error.c_str());
    };
    apply(opt.trackerFilter, "--tracker", base.trackerInfo().name,
          &ScenarioCell::tracker);
    apply(opt.attackFilter, "--attack", base.attackInfo().name,
          &ScenarioCell::attack);
}

/**
 * The one grid executor of the benches: an in-process Runner by default,
 * the dapper-fleet coordinator when --fleet DIR was given. With --seeds
 * N it first appends the N-replica seed axis innermost, so consecutive
 * groups of N rows are one cell (seedMeans / seedSummaries). Fleet runs
 * are crash-safe and resumable. A campaign with quarantined cells but
 * every cell otherwise attempted still publishes its table —
 * quarantined cells render as explicit "--" / null gaps with a
 * "quarantined" marker, so partial results are not lost. A drained
 * campaign (SIGINT before every cell ran) cannot produce the table; it
 * reports progress and exits 3 — re-run with the same --fleet DIR to
 * continue where it stopped.
 */
inline ResultTable
runGrid(const Options &opt, ScenarioGrid grid, const char *prog)
{
    if (opt.seeds > 1)
        grid.seeds(opt.seeds);
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

/** Each cell's normalized value, averaged over its --seeds replicas, in
 *  cell order; with one seed, each cell's own value bit for bit. */
inline std::vector<double>
seedMeans(const Options &opt, const ResultTable &table)
{
    std::vector<double> out;
    for (const SeedSummary &s :
         table.seedSummaries(static_cast<std::size_t>(opt.seeds)))
        out.push_back(s.mean);
    return out;
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
