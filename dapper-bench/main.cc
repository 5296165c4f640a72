/**
 * @file
 * dapper-bench benchmark binary. One process runs one workload for a fixed time
 * budget and prints, as its last stdout line, one JSON object:
 *
 *   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
 *
 * --trace 0 measures the end-to-end metrics (wall_s, setup_s, sim_mips,
 * peak_rss_mb) with no decorator in the path. --trace 1 alternates
 * untraced and traced operations and reports the per-layer metrics.
 * Every operation is checked against its pinned fingerprint. README.md
 * has the metric tables; run.py builds this binary and adds provenance.
 *
 *   dapper_bench --workload perf-attack --seed 3 --seconds 30 --trace 0
 *   dapper_bench --pin > pins.inc      # regenerate the pinned values
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "harness.hh"

namespace {

using namespace dbench;

struct Args
{
    std::string workload;
    long long seed = 0;
    double seconds = 0.0;
    int trace = -1;
    bool pin = false;
};

[[noreturn]] void
usage(const char *error)
{
    if (error != nullptr)
        std::fprintf(stderr, "dapper_bench: %s\n", error);
    std::fprintf(stderr,
                 "usage: dapper_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n"
                 "       dapper_bench --pin\n"
                 "workloads:");
    for (const Workload &w : workloads())
        std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Args
parse(int argc, char **argv)
{
    Args a;
    auto value = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage("missing value for flag");
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--workload") == 0) {
            a.workload = value(i);
        } else if (std::strcmp(argv[i], "--seed") == 0) {
            char *end = nullptr;
            const char *v = value(i);
            a.seed = std::strtoll(v, &end, 10);
            if (end == v || *end != '\0')
                usage("--seed must be an integer");
        } else if (std::strcmp(argv[i], "--seconds") == 0) {
            a.seconds = std::atof(value(i));
            if (a.seconds <= 0.0)
                usage("--seconds must be > 0");
        } else if (std::strcmp(argv[i], "--trace") == 0) {
            const std::string v = value(i);
            if (v != "0" && v != "1")
                usage("--trace must be 0 or 1");
            a.trace = v == "1";
        } else if (std::strcmp(argv[i], "--pin") == 0) {
            a.pin = true;
        } else {
            usage("unknown flag");
        }
    }
    if (!a.pin && (a.workload.empty() || a.seconds <= 0.0 || a.trace < 0))
        usage("--workload, --seconds and --trace are required");
    return a;
}

/** name -> {value, unit}, printed in insertion order. */
class Metrics
{
  public:
    void
    set(const std::string &name, double value, const char *unit)
    {
        entries_.push_back({name, value, unit});
    }

    void
    print(std::FILE *out) const
    {
        std::fputc('{', out);
        for (std::size_t i = 0; i < entries_.size(); ++i)
            std::fprintf(out,
                         "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                         i ? ", " : "", entries_[i].name.c_str(),
                         entries_[i].value, entries_[i].unit);
        std::fputc('}', out);
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        const char *unit;
    };
    std::vector<Entry> entries_;
};

/** Attempted / failed operations of one run. */
struct Tally
{
    int attempted = 0;
    int failed = 0;
};

/**
 * Run one operation and check it: the fingerprint must equal the pinned
 * value and every dapper-h run must end violation-free. A thrown error
 * is a failed operation; an abort ends the process (run.py counts it).
 */
bool
checkedOp(const Workload &w, const dapper::SysConfig &cfg,
          std::optional<std::uint64_t> pin, Trace *trace, Tally &tally,
          OpResult &out)
{
    ++tally.attempted;
    const char *verdict = "ok";
    try {
        out = runOp(w, cfg, trace);
        if (!pin || out.fingerprint != *pin)
            verdict = "fingerprint-mismatch";
        else if (!out.gtClean)
            verdict = "gt-violations";
    } catch (const std::exception &e) {
        std::fprintf(stderr, "dapper-bench: error: %s\n", e.what());
        verdict = "error";
    }
    const bool ok = std::strcmp(verdict, "ok") == 0;
    tally.failed += ok ? 0 : 1;
    std::fprintf(stderr,
                 "dapper-bench: op %d %s %s fingerprint=%016" PRIx64
                 " wall=%.4fs sim=%.4fs\n",
                 tally.attempted, trace ? "traced" : "untraced", verdict,
                 out.fingerprint, out.wallS, out.simS);
    return ok;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/**
 * Keep going while another operation like the last one still fits in
 * the budget; always run at least @p minOps.
 */
bool
more(std::uint64_t start, double budgetS, double lastS, int done, int minOps)
{
    if (done < minOps)
        return true;
    const double elapsed = static_cast<double>(nowNs() - start) / 1e9;
    return elapsed + lastS <= budgetS;
}

Metrics
endToEnd(const Workload &w, const dapper::SysConfig &cfg,
         std::optional<std::uint64_t> pin, double budgetS, Tally &tally)
{
    // One untimed cold set-up first: registry statics, DTR mmaps and
    // frame validation happen once per process. The samples are the
    // per-cell cost of a process that runs many cells. They are taken
    // after every operation (5% of its time), so they span the run the
    // way the operations do instead of one burst at its start.
    setupOnce(w, cfg);
    std::vector<double> setups;
    std::vector<double> walls;
    std::vector<double> mips;
    const std::uint64_t start = nowNs();
    OpResult op;
    do {
        if (checkedOp(w, cfg, pin, nullptr, tally, op)) {
            walls.push_back(op.wallS);
            mips.push_back(static_cast<double>(op.counts.instructions) /
                           op.simS / 1e6);
        }
        const std::uint64_t setupStart = nowNs();
        do
            setups.push_back(setupOnce(w, cfg));
        while (static_cast<double>(nowNs() - setupStart) / 1e9 <
               0.05 * op.wallS);
    } while (more(start, budgetS, op.wallS, tally.attempted, 2));

    Metrics m;
    m.set("wall_s", median(walls), "s");
    m.set("setup_s", median(setups), "s");
    m.set("sim_mips", median(mips), "MIPS");
    m.set("peak_rss_mb", peakRssMb(), "MB");
    return m;
}

double
perCall(double seconds, std::uint64_t calls)
{
    return calls ? seconds * 1e9 / static_cast<double>(calls) : 0.0;
}

Metrics
traced(const Workload &w, const dapper::SysConfig &cfg,
       std::optional<std::uint64_t> pin, double budgetS, Tally &tally)
{
    const ClockCost clock = calibrateClock();
    std::fprintf(stderr,
                 "dapper-bench: tracing cost: empty span %.1f ns, timed "
                 "call %.1f ns\n",
                 clock.spanNs, clock.callNs);

    // Per traced operation, keyed by metric name.
    std::map<std::string, std::vector<double>> samples;
    std::vector<double> untracedSim;
    std::vector<double> tracedSim;
    Trace first;
    first.actCap = std::size_t{1} << 20;
    first.acts.reserve(first.actCap);
    OpResult last;
    bool haveFirst = false;
    const std::uint64_t start = nowNs();
    double pairS = 0.0;
    int pairs = 0;
    do {
        OpResult plain;
        OpResult op;
        Trace fresh;
        Trace &trace = haveFirst ? fresh : first;
        const bool okPlain = checkedOp(w, cfg, pin, nullptr, tally, plain);
        const bool okTraced = checkedOp(w, cfg, pin, &trace, tally, op);
        ++pairs;
        pairS = plain.wallS + op.wallS;
        if (!okPlain || !okTraced)
            continue;
        haveFirst = true;
        untracedSim.push_back(plain.simS);
        tracedSim.push_back(op.simS);
        last = op;

        const LayerTimes t = layerTimes(trace, op.simS, clock);
        auto raw = [](const Span &span) {
            return perCall(static_cast<double>(span.ns) / 1e9, span.calls);
        };
        std::fprintf(stderr,
                     "dapper-bench: raw spans (calls, ns/call): gen %" PRIu64
                     " %.1f, act %" PRIu64 " %.1f, throttle %" PRIu64
                     " %.1f, hook %" PRIu64 " %.1f\n",
                     trace.gen.calls, raw(trace.gen), trace.act.calls,
                     raw(trace.act), trace.throttle.calls,
                     raw(trace.throttle), trace.hook.calls, raw(trace.hook));
        auto &s = samples;
        s["workload.host_s"].push_back(t.genS);
        s["workload.ns_per_record"].push_back(
            perCall(t.genS, trace.gen.calls));
        s["rh.tracker.act_host_s"].push_back(t.actS);
        s["rh.tracker.ns_per_act"].push_back(
            perCall(t.actS, trace.act.calls));
        s["rh.tracker.hook_host_s"].push_back(t.hookS);
        s["sim.host_s"].push_back(op.simS);
        s["sim.engine_self_s"].push_back(t.engineSelfS);
        s["sim.trefi_host_us_p50"].push_back(median(trace.trefiUs));
        s["sim.trefi_host_us_max"].push_back(
            trace.trefiUs.empty()
                ? 0.0
                : *std::max_element(trace.trefiUs.begin(),
                                    trace.trefiUs.end()));
        s["workload.records"].push_back(
            static_cast<double>(trace.gen.calls));
        s["rh.tracker.acts"].push_back(static_cast<double>(trace.act.calls));
        s["rh.tracker.throttle_calls"].push_back(
            static_cast<double>(trace.throttle.calls));
        s["rh.tracker.hook_calls"].push_back(
            static_cast<double>(trace.hook.calls));
    } while (more(start, budgetS, pairS, pairs, 1));

    std::vector<double> replays;
    for (int i = 0; i < 5; ++i)
        replays.push_back(replayGroundTruthNsPerAct(first));

    const Counts &c = last.counts;
    auto med = [&](const char *name) { return median(samples[name]); };
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const double u = median(untracedSim);
    Metrics m;
    m.set("workload.records", med("workload.records"), "count");
    m.set("workload.host_s", med("workload.host_s"), "s");
    m.set("workload.ns_per_record", med("workload.ns_per_record"), "ns");
    m.set("rh.tracker.acts", med("rh.tracker.acts"), "count");
    m.set("rh.tracker.act_host_s", med("rh.tracker.act_host_s"), "s");
    m.set("rh.tracker.ns_per_act", med("rh.tracker.ns_per_act"), "ns");
    m.set("rh.tracker.throttle_calls", med("rh.tracker.throttle_calls"),
          "count");
    m.set("rh.tracker.mitigations", static_cast<double>(c.mitigations),
          "count");
    m.set("rh.tracker.hook_calls", med("rh.tracker.hook_calls"), "count");
    m.set("rh.tracker.hook_host_s", med("rh.tracker.hook_host_s"), "s");
    m.set("rh.ground_truth.acts", static_cast<double>(c.gtActs), "count");
    m.set("rh.ground_truth.replay_ns_per_act", median(replays), "ns");
    m.set("mem.requests", static_cast<double>(c.memRequests), "count");
    m.set("mem.acts", static_cast<double>(c.memActs), "count");
    m.set("mem.row_hit_ratio",
          ratio(static_cast<double>(c.rowHits),
                static_cast<double>(c.rowHits + c.rowMisses)),
          "ratio");
    m.set("mem.counter_requests", static_cast<double>(c.counterRequests),
          "count");
    m.set("mem.blocked_bank_ticks", static_cast<double>(c.blockedBankTicks),
          "ticks");
    m.set("mem.avg_read_latency_ticks",
          ratio(c.readLatencySum, static_cast<double>(c.readCount)),
          "ticks");
    m.set("cache.accesses", static_cast<double>(c.llcHits + c.llcMisses),
          "count");
    m.set("cache.hit_ratio",
          ratio(static_cast<double>(c.llcHits),
                static_cast<double>(c.llcHits + c.llcMisses)),
          "ratio");
    m.set("cache.counter_accesses",
          static_cast<double>(c.llcCounterAccesses), "count");
    m.set("cache.writebacks", static_cast<double>(c.llcWritebacks), "count");
    m.set("cpu.instructions", static_cast<double>(c.instructions), "count");
    m.set("cpu.benign_ipc", dapper::geomean(c.benignIpc), "ipc");
    m.set("sim.host_s", med("sim.host_s"), "s");
    m.set("sim.engine_self_s", med("sim.engine_self_s"), "s");
    m.set("sim.trefi_host_us_p50", med("sim.trefi_host_us_p50"), "us");
    m.set("sim.trefi_host_us_max", med("sim.trefi_host_us_max"), "us");
    m.set("sim.trace_overhead_pct",
          u > 0.0 ? (median(tracedSim) / u - 1.0) * 100.0 : 0.0, "%");
    m.set("sim.runner.cells", static_cast<double>(last.runnerCells),
          "count");
    m.set("sim.runner.baseline_runs", static_cast<double>(last.baselineRuns),
          "count");
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parse(argc, argv);
    if (args.pin) {
        writePins(stdout);
        return 0;
    }
    const Workload *w = nullptr;
    try {
        w = &workload(args.workload);
    } catch (const std::exception &e) {
        usage(e.what());
    }
    const dapper::SysConfig cfg = benchConfig(simSeedFor(args.seed));
    const std::optional<std::uint64_t> pin =
        pinnedFingerprint(w->name, cfg.seed);
    std::fprintf(stderr,
                 "dapper-bench: workload %s seed %lld -> sim seed %" PRIu64
                 ", pinned fingerprint %s\n",
                 w->name.c_str(), args.seed, cfg.seed,
                 pin ? "present" : "MISSING");

    Tally tally;
    const Metrics metrics =
        args.trace ? traced(*w, cfg, pin, args.seconds, tally)
                   : endToEnd(*w, cfg, pin, args.seconds, tally);
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                "\"metrics\": ",
                tally.failed == 0 ? "true" : "false", tally.attempted,
                tally.failed);
    metrics.print(stdout);
    std::printf("}\n");
    return 0;
}
