#include "src/sim/experiment.hh"

#include <memory>
#include <stdexcept>
#include <string>

#include "src/common/check.hh"
#include "src/common/stats.hh"
#include "src/sim/probe.hh"
#include "src/workload/workload_registry.hh"

namespace dapper {

Tick
defaultHorizon(const SysConfig &cfg)
{
    return 2 * cfg.tREFW();
}

RunResult
runOnce(const SysConfig &cfg, const std::string &workload,
        const AttackInfo &attack, const TrackerInfo &tracker,
        Tick horizon)
{
    return runOnce(cfg, std::vector<std::string>{workload}, attack,
                   tracker, horizon);
}

RunResult
runOnce(const SysConfig &cfg, const std::vector<std::string> &workloads,
        const AttackInfo &attack, const TrackerInfo &tracker,
        Tick horizon)
{
    return detail::runSystem(cfg, workloads, attack, tracker, horizon,
                             [](System &sys, Tick h) { sys.run(h); });
}

RunResult
runOnce(const SysConfig &cfg, const std::string &workload,
        const std::string &attack, const std::string &tracker,
        Tick horizon)
{
    return runOnce(cfg, workload, AttackRegistry::instance().at(attack),
                   TrackerRegistry::instance().at(tracker), horizon);
}

RunResult
detail::runSystem(const SysConfig &cfg,
                  const std::vector<std::string> &workloads,
                  const AttackInfo &attack, const TrackerInfo &tracker,
                  Tick horizon, AdvanceFn advance)
{
    if (workloads.empty())
        throw std::invalid_argument(
            "runOnce: per-core workload list is empty");
    SysConfig runCfg = cfg;
    if (horizon == 0)
        horizon = defaultHorizon(runCfg);

    AddressMapper mapper(runCfg);
    WorkloadRegistry &registry = WorkloadRegistry::instance();
    std::vector<const WorkloadInfo *> infos;
    for (const std::string &name : workloads)
        infos.push_back(&registry.at(name));

    std::vector<std::unique_ptr<TraceGen>> gens;
    int attackerCore = -1;
    for (int i = 0; i < runCfg.numCores; ++i) {
        const bool isAttacker =
            !attack.isNone() && i == runCfg.numCores - 1;
        if (isAttacker) {
            attackerCore = i;
            gens.push_back(attack.make(runCfg, mapper,
                                       runCfg.seed + 777));
        } else {
            const WorkloadInfo &info =
                *infos[static_cast<std::size_t>(i) % infos.size()];
            gens.push_back(info.make(runCfg, i, runCfg.seed + 13));
        }
    }

    System sys(runCfg, tracker, std::move(gens), attackerCore);
    TrefiSeriesProbe probe;
    sys.attachProbe(&probe);
    advance(sys, horizon);

    RunResult result;
    std::vector<double> benign;
    for (int i = 0; i < runCfg.numCores; ++i) {
        result.coreIpc.push_back(sys.ipc(i));
        if (i != attackerCore)
            benign.push_back(std::max(1e-9, sys.ipc(i)));
    }
    result.benignIpcMean = geomean(benign);
    if (sys.tracker() != nullptr)
        result.mitigations = sys.tracker()->mitigations();
    for (int c = 0; c < runCfg.channels; ++c) {
        const auto &stats = sys.controller(c).stats();
        result.bulkResets += stats.bulkResets;
        result.counterTraffic += stats.counterReads + stats.counterWrites;
        result.activations += stats.activations;
    }
    result.maxDamage = sys.groundTruth().maxDamageEver();
    result.rhViolations = sys.groundTruth().violations();
    result.energyNj = sys.energy().totalNj();

    // Full telemetry export: the component tree, then the probe series.
    StatWriter writer(result.stats);
    sys.exportStats(writer);
    probe.exportStats(writer);

    // The typed convenience fields must mirror their stat counterparts
    // exactly — one measurement, two views. Cheap (once per run), so
    // checked in every build type.
    DAPPER_CHECK(result.mitigations ==
                     (sys.tracker() != nullptr
                          ? result.stats.u64("tracker.mitigations")
                          : 0),
                 "RunResult.mitigations != tracker.mitigations stat");
    DAPPER_CHECK(result.maxDamage == result.stats.u64("gt.maxDamage"),
                 "RunResult.maxDamage != gt.maxDamage stat");
    DAPPER_CHECK(result.rhViolations ==
                     result.stats.u64("gt.violations"),
                 "RunResult.rhViolations != gt.violations stat");
    DAPPER_CHECK(result.energyNj == result.stats.f64("energy.totalNj"),
                 "RunResult.energyNj != energy.totalNj stat");
    std::uint64_t statActs = 0;
    for (int c = 0; c < runCfg.channels; ++c)
        statActs += result.stats.u64("mem." + std::to_string(c) +
                                     ".activations");
    DAPPER_CHECK(result.activations == statActs,
                 "RunResult.activations != sum of mem.*.activations");
    for (int i = 0; i < runCfg.numCores; ++i)
        DAPPER_CHECK(result.coreIpc[static_cast<std::size_t>(i)] ==
                         result.stats.f64("core." + std::to_string(i) +
                                          ".ipc"),
                     "RunResult.coreIpc != core.<i>.ipc stat");
    return result;
}

} // namespace dapper
