#include "harness.hh"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>
#include <stdexcept>

#include "src/common/check.hh"
#include "src/rh/ground_truth.hh"
#include "src/rh/registry.hh"
#include "src/sim/experiment.hh"
#include "src/sim/probe.hh"
#include "src/sim/runner.hh"
#include "src/sim/scenario.hh"
#include "src/sim/system.hh"
#include "src/workload/attack_registry.hh"
#include "src/workload/workload_registry.hh"

namespace dbench {

using namespace dapper;

namespace {

/** Pinned full-telemetry fingerprints (pins.inc, from `--pin`). */
struct Pin
{
    const char *workload;
    std::uint64_t simSeed;
    std::uint64_t fingerprint;
    /// tracker-grid: instructions the Runner's baseline runs retire.
    std::uint64_t baselineInstructions;
};

constexpr Pin kPins[] = {
#include "pins.inc"
};

const char *const kGridWorkload = "429.mcf";

/** The tracker-grid cells: {tracker, attack} on kGridWorkload. */
struct GridCell
{
    const char *tracker;
    const char *attack;
};

constexpr GridCell kGridCells[] = {
    {"dapper-h", "streaming"},
    {"hydra", "hydra-rcc"},
    {"start", "start-stream"},
    {"comet", "comet-rat"},
};

// --- tracing decorators ------------------------------------------------

/** Times TraceGen::next. */
class TimedTraceGen final : public TraceGen
{
  public:
    TimedTraceGen(std::unique_ptr<TraceGen> inner, Trace &trace)
        : inner_(std::move(inner)), trace_(trace)
    {
    }

    TraceRecord
    next() override
    {
        const std::uint64_t t0 = nowNs();
        const TraceRecord r = inner_->next();
        trace_.gen.add(t0, nowNs());
        return r;
    }

    std::string name() const override { return inner_->name(); }

  private:
    std::unique_ptr<TraceGen> inner_;
    Trace &trace_;
};

/** One host-clock sample at a tREFI boundary. */
void
sampleTrefi(Trace &trace, std::uint64_t &lastNs)
{
    const std::uint64_t t = nowNs();
    ++trace.trefiSamples;
    if (lastNs != 0)
        trace.trefiUs.push_back(static_cast<double>(t - lastNs) / 1e3);
    lastNs = t;
}

/** Host-clock probe: host time per simulated tREFI. */
class HostClockProbe final : public Probe
{
  public:
    explicit HostClockProbe(Trace &trace) : trace_(trace) {}

    void
    onTrefi(const System &, Tick) override
    {
        sampleTrefi(trace_, lastNs_);
    }

  private:
    Trace &trace_;
    std::uint64_t lastNs_ = 0;
};

/**
 * Times the Tracker virtual hooks. Tracker::mitigations() is
 * non-virtual and reads the protected count, so it is mirrored from the
 * inner tracker after every forwarded call; runOnce-style checks of
 * RunResult.mitigations against the exported stat then still hold.
 *
 * @p trefiTicks non-zero samples the host clock at the first onPeriodic
 * of each tREFI — the stand-in for HostClockProbe where Runner builds
 * the System and no probe can be attached.
 */
class TimedTracker final : public Tracker
{
  public:
    TimedTracker(std::unique_ptr<Tracker> inner, Trace &trace,
                 Tick trefiTicks)
        : inner_(std::move(inner)), trace_(trace),
          id_(++trace.trackersBuilt), trefiTicks_(trefiTicks)
    {
    }

    void
    onActivation(const ActEvent &event, MitigationVec &out) override
    {
        const std::uint64_t t0 = nowNs();
        inner_->onActivation(event, out);
        if (trace_.busyDelayNs != 0) {
            const std::uint64_t until = nowNs() + trace_.busyDelayNs;
            while (nowNs() < until) {
            }
        }
        trace_.act.add(t0, nowNs());
        mitigations_ = inner_->mitigations();
        if (id_ == 1 && trace_.acts.size() < trace_.actCap)
            trace_.acts.push_back(event);
    }

    void
    onRefreshWindow(Tick now, MitigationVec &out) override
    {
        const std::uint64_t t0 = nowNs();
        inner_->onRefreshWindow(now, out);
        trace_.hook.add(t0, nowNs());
        mitigations_ = inner_->mitigations();
    }

    void
    onPeriodic(Tick now, MitigationVec &out) override
    {
        if (trefiTicks_ != 0 && now / trefiTicks_ > lastTrefi_) {
            lastTrefi_ = now / trefiTicks_;
            sampleTrefi(trace_, lastTrefiNs_);
        }
        const std::uint64_t t0 = nowNs();
        inner_->onPeriodic(now, out);
        trace_.hook.add(t0, nowNs());
        mitigations_ = inner_->mitigations();
    }

    Tick actExtraTicks() const override { return inner_->actExtraTicks(); }

    Tick
    throttleUntil(const ActEvent &event) override
    {
        const std::uint64_t t0 = nowNs();
        const Tick until = inner_->throttleUntil(event);
        trace_.throttle.add(t0, nowNs());
        mitigations_ = inner_->mitigations();
        return until;
    }

    StorageEstimate storage() const override { return inner_->storage(); }
    std::string name() const override { return inner_->name(); }

    void
    exportStats(StatWriter &w) const override
    {
        inner_->exportStats(w);
    }

  private:
    std::unique_ptr<Tracker> inner_;
    Trace &trace_;
    const int id_;
    const Tick trefiTicks_;
    Tick lastTrefi_ = 0;
    std::uint64_t lastTrefiNs_ = 0;
};

/** Copy of @p base whose make() wraps the tracker in TimedTracker. */
TrackerInfo
timedTracker(const TrackerInfo &base, Trace &trace, Tick trefiTicks)
{
    TrackerInfo info = base;
    info.make = [inner = base.make, &trace,
                 trefiTicks](SysConfig &cfg,
                             Llc *llc) -> std::unique_ptr<Tracker> {
        std::unique_ptr<Tracker> tracker = inner(cfg, llc);
        if (!tracker)
            return nullptr;
        if (trace.trackersBuilt == 0)
            trace.actCfg = cfg;
        return std::make_unique<TimedTracker>(std::move(tracker), trace,
                                              trefiTicks);
    };
    return info;
}

/** Copy of @p base whose make() wraps the generator in TimedTraceGen. */
AttackInfo
timedAttack(const AttackInfo &base, Trace &trace)
{
    AttackInfo info = base;
    info.make = [inner = base.make, &trace](const SysConfig &cfg,
                                            const AddressMapper &mapper,
                                            std::uint64_t seed) {
        return std::unique_ptr<TraceGen>(
            std::make_unique<TimedTraceGen>(inner(cfg, mapper, seed),
                                            trace));
    };
    return info;
}

/** The Trace the registered "traced." workload copies feed while a
 *  traced grid runs; null otherwise. */
Trace *&
activeGridTrace()
{
    static Trace *trace = nullptr;
    return trace;
}

/**
 * Runner resolves benign workloads by registry name, so the traced grid
 * runs a registered copy ("traced.<name>") whose generators are timed
 * into activeGridTrace(). Registered once, on the main thread.
 */
std::string
tracedWorkload(const std::string &name)
{
    const std::string traced = "traced." + name;
    WorkloadRegistry &registry = WorkloadRegistry::instance();
    if (registry.find(traced) == nullptr) {
        WorkloadInfo info = registry.at(name);
        info.name = traced;
        info.make = [inner = info.make](const SysConfig &cfg, int core,
                                        std::uint64_t seed) {
            Trace *trace = activeGridTrace();
            DAPPER_CHECK(trace != nullptr,
                         "traced workload built outside a traced grid");
            return std::unique_ptr<TraceGen>(std::make_unique<TimedTraceGen>(
                inner(cfg, core, seed), *trace));
        };
        registry.add(std::move(info));
    }
    return traced;
}

// --- cell runner (mirrors runOnce) --------------------------------------

/**
 * One System built exactly as runOnce builds it: benign core i runs
 * benign[i % n] seeded seed+13, the attacker (when any) runs on the last
 * core seeded seed+777. Attack generators keep a reference to the
 * mapper, so it lives as long as the System (declared first, destroyed
 * last).
 */
struct BuiltSystem
{
    std::unique_ptr<AddressMapper> mapper;
    std::unique_ptr<System> sys;
    int attackerCore = -1;
};

/** With @p trace every generator is timed. */
BuiltSystem
makeSystem(const SysConfig &cfg, const std::vector<std::string> &benign,
           const AttackInfo &attack, const TrackerInfo &tracker,
           Trace *trace)
{
    BuiltSystem built;
    built.mapper = std::make_unique<AddressMapper>(cfg);
    WorkloadRegistry &registry = WorkloadRegistry::instance();
    std::vector<const WorkloadInfo *> infos;
    for (const std::string &name : benign)
        infos.push_back(&registry.at(name));

    std::vector<std::unique_ptr<TraceGen>> gens;
    for (int i = 0; i < cfg.numCores; ++i) {
        if (!attack.isNone() && i == cfg.numCores - 1) {
            built.attackerCore = i;
            gens.push_back(attack.make(cfg, *built.mapper, cfg.seed + 777));
        } else {
            gens.push_back(
                infos[static_cast<std::size_t>(i) % infos.size()]->make(
                    cfg, i, cfg.seed + 13));
        }
        if (trace != nullptr)
            gens.back() = std::make_unique<TimedTraceGen>(
                std::move(gens.back()), *trace);
    }
    built.sys = std::make_unique<System>(cfg, tracker, std::move(gens),
                                         built.attackerCore);
    return built;
}

double
seconds(std::uint64_t t0, std::uint64_t t1)
{
    return static_cast<double>(t1 - t0) / 1e9;
}

Tick
horizonOf(const Workload &w, const SysConfig &cfg)
{
    return static_cast<Tick>(w.windows) * cfg.tREFW();
}

OpResult
runCell(const Workload &w, const SysConfig &cfg, Trace *trace)
{
    OpResult op;
    const std::uint64_t t0 = nowNs();
    const AttackInfo &attack = AttackRegistry::instance().at(w.attack);
    const TrackerInfo &registered = TrackerRegistry::instance().at(w.tracker);
    std::optional<TrackerInfo> traced;
    if (trace != nullptr)
        traced = timedTracker(registered, *trace, 0);
    BuiltSystem built = makeSystem(cfg, w.benign, attack,
                                   traced ? *traced : registered, trace);
    System *sys = built.sys.get();
    TrefiSeriesProbe series;
    sys->attachProbe(&series);
    std::optional<HostClockProbe> hostProbe;
    if (trace != nullptr)
        sys->attachProbe(&hostProbe.emplace(*trace));
    const std::uint64_t t1 = nowNs();

    sys->run(horizonOf(w, cfg));
    const std::uint64_t t2 = nowNs();

    StatDict stats;
    StatWriter writer(stats);
    sys->exportStats(writer);
    series.exportStats(writer);
    Fnv fnv;
    fnv.mixDict(stats);
    op.fingerprint = fnv.value();
    op.counts.add(stats, built.attackerCore);
    op.gtClean = w.tracker != "dapper-h" || stats.u64("gt.violations") == 0;
    built = {};
    const std::uint64_t t3 = nowNs();

    op.simS = seconds(t1, t2);
    op.wallS = seconds(t0, t3);
    return op;
}

/** tracker-grid scenarios; traced copies of the infos live in the
 *  deques, which must outlive the run. */
std::vector<Scenario>
gridScenarios(const SysConfig &cfg, Trace *trace,
              std::deque<TrackerInfo> &trackers,
              std::deque<AttackInfo> &attacks)
{
    const Scenario base =
        Scenario()
            .config(cfg)
            .workload(trace ? tracedWorkload(kGridWorkload) : kGridWorkload)
            .windows(1)
            .baseline(Baseline::SameAttack);
    std::vector<ScenarioGrid::AxisValue> cells;
    for (const GridCell &cell : kGridCells) {
        const TrackerInfo *tracker =
            &TrackerRegistry::instance().at(cell.tracker);
        const AttackInfo *attack = &AttackRegistry::instance().at(cell.attack);
        if (trace != nullptr) {
            tracker = &trackers.emplace_back(
                timedTracker(*tracker, *trace, cfg.tREFI()));
            attack = &attacks.emplace_back(timedAttack(*attack, *trace));
        }
        cells.emplace_back(std::string(cell.tracker),
                           [tracker, attack](Scenario &s) {
                               s.tracker(*tracker).attack(*attack);
                           });
    }
    return ScenarioGrid(base).axis(std::move(cells)).expand();
}

std::uint64_t
gridFingerprint(const ResultTable &table)
{
    Fnv fnv;
    for (const ScenarioResult &row : table.rows()) {
        fnv.mixDict(row.run.stats);
        fnv.mixF64(row.baselineIpc);
        fnv.mixF64(row.normalized);
    }
    return fnv.value();
}

const Pin *
findPin(const std::string &workload, std::uint64_t simSeed)
{
    for (const Pin &pin : kPins)
        if (workload == pin.workload && pin.simSeed == simSeed)
            return &pin;
    return nullptr;
}

OpResult
runGrid(const SysConfig &cfg, Trace *trace)
{
    OpResult op;
    const std::uint64_t t0 = nowNs();
    std::deque<TrackerInfo> trackers;
    std::deque<AttackInfo> attacks;
    const std::vector<Scenario> scenarios =
        gridScenarios(cfg, trace, trackers, attacks);
    Runner runner(1);
    activeGridTrace() = trace;
    const std::uint64_t t1 = nowNs();
    const ResultTable table = runner.run(scenarios);
    const std::uint64_t t2 = nowNs();
    activeGridTrace() = nullptr;

    op.fingerprint = gridFingerprint(table);
    for (const ScenarioResult &row : table.rows()) {
        op.counts.add(row.run.stats, cfg.numCores - 1);
        if (row.scenario.trackerInfo().name == "dapper-h")
            op.gtClean = op.gtClean && row.run.rhViolations == 0;
    }
    if (const Pin *pin = findPin("tracker-grid", cfg.seed))
        op.counts.instructions += pin->baselineInstructions;
    op.runnerCells = table.size();
    op.baselineRuns = runner.baselineCacheSize();
    const std::uint64_t t3 = nowNs();

    op.simS = seconds(t1, t2);
    op.wallS = seconds(t0, t3);
    return op;
}

} // namespace

// --- workloads ----------------------------------------------------------

const std::vector<Workload> &
workloads()
{
    // Why each workload was chosen: README.md, "Workloads".
    static const std::vector<Workload> kWorkloads = {
        {"perf-attack", false, {"429.mcf"}, "streaming", "dapper-h", 1},
        // One window is ~0.08 s of host time, so run twenty.
        {"compute-bound", false, {"456.hmmer"}, "none", "dapper-h", 20},
        {"trace-mix", false,
         {"trace-gc", "trace-stencil", "trace-ptrchase"}, "streaming",
         "dapper-h", 1},
        {"tracker-grid", true, {}, "", "", 1},
    };
    return kWorkloads;
}

const Workload &
workload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (w.name == name)
            return w;
    throw std::invalid_argument("unknown workload '" + name + "'");
}

std::uint64_t
simSeedFor(long long seed)
{
    const long long k = seed % kSimSeeds;
    return 1 + static_cast<std::uint64_t>(k < 0 ? k + kSimSeeds : k);
}

SysConfig
benchConfig(std::uint64_t simSeed)
{
    SysConfig cfg;
    cfg.nRH = 500;
    cfg.seed = simSeed;
    return cfg;
}

// --- fingerprint ---------------------------------------------------------

void
Fnv::mixF64(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v), "");
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
}

void
Fnv::mixStr(const std::string &s)
{
    for (const char c : s) {
        h_ ^= static_cast<unsigned char>(c);
        h_ *= 1099511628211ull;
    }
}

void
Fnv::mixDict(const StatDict &d)
{
    for (const StatEntry &e : d.entries()) {
        mixStr(e.name);
        if (e.type == StatEntry::Type::U64)
            mix(e.u64);
        else
            mixF64(e.f64);
    }
    for (const StatSeries &s : d.series()) {
        mixStr(s.name);
        for (const double v : s.values)
            mixF64(v);
    }
}

// --- counts --------------------------------------------------------------

void
Counts::add(const StatDict &d, int attackerCore)
{
    const int cores = static_cast<int>(d.u64("sys.numCores"));
    std::vector<double> benign;
    for (int i = 0; i < cores; ++i) {
        const std::string core = "core." + std::to_string(i) + ".";
        instructions += d.u64(core + "retired");
        if (i != attackerCore)
            benign.push_back(std::max(1e-9, d.f64(core + "ipc")));
    }
    benignIpc.push_back(geomean(benign));

    const int channels = static_cast<int>(d.u64("sys.channels"));
    for (int c = 0; c < channels; ++c) {
        const std::string mem = "mem." + std::to_string(c) + ".";
        memRequests += d.u64(mem + "reads") + d.u64(mem + "writes");
        memActs += d.u64(mem + "activations");
        rowHits += d.u64(mem + "rowHits");
        rowMisses += d.u64(mem + "rowMisses");
        counterRequests +=
            d.u64(mem + "counterReads") + d.u64(mem + "counterWrites");
        blockedBankTicks += d.u64(mem + "busyBlockedTicks");
        const std::uint64_t reads = d.u64(mem + "readLatencyCount");
        readLatencySum +=
            d.f64(mem + "avgReadLatency") * static_cast<double>(reads);
        readCount += reads;
    }
    llcHits += d.u64("llc.hits");
    llcMisses += d.u64("llc.misses");
    llcCounterAccesses += d.u64("llc.counterHits") + d.u64("llc.counterMisses");
    llcWritebacks += d.u64("llc.writebacks");
    gtActs += d.u64("gt.activations");
    if (d.find("tracker.mitigations") != nullptr)
        mitigations += d.u64("tracker.mitigations");
}

// --- operations ------------------------------------------------------------

OpResult
runOp(const Workload &w, const SysConfig &cfg, Trace *trace)
{
    return w.grid ? runGrid(cfg, trace) : runCell(w, cfg, trace);
}

double
setupOnce(const Workload &w, const SysConfig &cfg)
{
    const TrackerInfo &none = TrackerRegistry::instance().at("none");
    double total = 0.0;
    auto build = [&](const std::vector<std::string> &benign,
                     const std::string &attackName,
                     const std::string &trackerName, bool baseline) {
        const std::uint64_t t0 = nowNs();
        const AttackInfo &attack = AttackRegistry::instance().at(attackName);
        const TrackerInfo &tracker =
            baseline ? none : TrackerRegistry::instance().at(trackerName);
        BuiltSystem built =
            makeSystem(cfg, benign, attack, tracker, nullptr);
        TrefiSeriesProbe series;
        built.sys->attachProbe(&series);
        total += seconds(t0, nowNs());
    };
    if (!w.grid) {
        build(w.benign, w.attack, w.tracker, false);
        return total;
    }
    for (const GridCell &cell : kGridCells) {
        build({kGridWorkload}, cell.attack, cell.tracker, false);
        build({kGridWorkload}, cell.attack, "none", true);
    }
    return total;
}

std::optional<std::uint64_t>
pinnedFingerprint(const std::string &workload, std::uint64_t simSeed)
{
    if (const Pin *pin = findPin(workload, simSeed))
        return pin->fingerprint;
    return std::nullopt;
}

void
writePins(std::FILE *out)
{
    std::fprintf(out,
                 "// Pinned full-telemetry fingerprints, one per workload "
                 "and sim seed.\n"
                 "// Generated by `dapper_bench --pin` through runOnce / "
                 "Runner; see README.md.\n"
                 "// {workload, simSeed, fingerprint, "
                 "baselineInstructions}\n");
    for (const Workload &w : workloads()) {
        for (std::uint64_t s = 1; s <= kSimSeeds; ++s) {
            const SysConfig cfg = benchConfig(s);
            std::uint64_t fp = 0;
            std::uint64_t baselineInstructions = 0;
            if (!w.grid) {
                const RunResult r = runOnce(
                    cfg, w.benign, AttackRegistry::instance().at(w.attack),
                    TrackerRegistry::instance().at(w.tracker),
                    horizonOf(w, cfg));
                Fnv fnv;
                fnv.mixDict(r.stats);
                fp = fnv.value();
            } else {
                std::deque<TrackerInfo> trackers;
                std::deque<AttackInfo> attacks;
                Runner runner(1);
                const ResultTable table = runner.run(
                    gridScenarios(cfg, nullptr, trackers, attacks));
                fp = gridFingerprint(table);
                for (const ScenarioResult &row : table.rows()) {
                    const RunResult b = runOnce(
                        cfg, std::string(kGridWorkload),
                        row.scenario.attackInfo(),
                        TrackerRegistry::instance().at("none"),
                        row.scenario.effectiveHorizon());
                    DAPPER_CHECK(b.benignIpcMean == row.baselineIpc,
                                 "baseline rerun differs from Runner's");
                    Counts c;
                    c.add(b.stats, cfg.numCores - 1);
                    baselineInstructions += c.instructions;
                }
            }
            std::fprintf(out,
                         "{\"%s\", %" PRIu64 ", 0x%016" PRIx64
                         "ull, %" PRIu64 "},\n",
                         w.name.c_str(), s, fp, baselineInstructions);
            std::fflush(out);
        }
    }
}

// --- calibration and replay ----------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

ClockCost
calibrateClock()
{
    constexpr int kCalls = 20000;
    ClockCost best{1e9, 1e9};
    for (int batch = 0; batch < 25; ++batch) {
        Span span;
        const std::uint64_t t0 = nowNs();
        for (int i = 0; i < kCalls; ++i) {
            const std::uint64_t s0 = nowNs();
            span.add(s0, nowNs());
        }
        const std::uint64_t t1 = nowNs();
        best.spanNs = std::min(best.spanNs,
                               static_cast<double>(span.ns) / kCalls);
        best.callNs = std::min(best.callNs,
                               static_cast<double>(t1 - t0) / kCalls);
    }
    return best;
}

LayerTimes
layerTimes(const Trace &trace, double simS, const ClockCost &clock)
{
    auto inside = [&clock](const Span &s) {
        const double ns = static_cast<double>(s.ns) -
                          static_cast<double>(s.calls) * clock.spanNs;
        return std::max(0.0, ns) / 1e9;
    };
    LayerTimes t;
    t.genS = inside(trace.gen);
    t.actS = inside(trace.act) + inside(trace.throttle);
    t.hookS = inside(trace.hook);
    const std::uint64_t calls = trace.gen.calls + trace.act.calls +
                                trace.throttle.calls + trace.hook.calls;
    // A tREFI sample is one read: about half an empty timed call.
    t.timerS = (static_cast<double>(calls) +
                0.5 * static_cast<double>(trace.trefiSamples)) *
               clock.callNs / 1e9;
    t.engineSelfS = simS - t.genS - t.actS - t.hookS - t.timerS;
    return t;
}

double
replayGroundTruthNsPerAct(const Trace &trace)
{
    if (trace.acts.empty() || !trace.actCfg)
        return 0.0;
    const SysConfig &cfg = *trace.actCfg;
    GroundTruth gt(cfg);
    const Tick trefi = cfg.tREFI();
    const Tick trefw = cfg.tREFW();
    Tick nextRef = trefi;
    Tick nextWindow = trefw;
    const std::uint64_t t0 = nowNs();
    for (const ActEvent &e : trace.acts) {
        for (; e.now >= nextRef; nextRef += trefi)
            for (int ch = 0; ch < cfg.channels; ++ch)
                for (int r = 0; r < cfg.ranksPerChannel; ++r)
                    gt.onAutoRefresh(ch, r);
        for (; e.now >= nextWindow; nextWindow += trefw)
            gt.onWindowBoundary();
        gt.onActivation(e.channel, e.rank, e.bank, e.row);
    }
    const std::uint64_t t1 = nowNs();
    return static_cast<double>(t1 - t0) /
           static_cast<double>(trace.acts.size());
}

} // namespace dbench
