#include "src/workload/workload_registry.hh"

#include <stdexcept>

#include "src/common/check.hh"
#include "src/trace/replay.hh"
#include "src/workload/benign.hh"

namespace dapper {

WorkloadRegistry::WorkloadRegistry() : NamedRegistry("workload")
{
    // The full synthetic population, factory-identical to the direct
    // BenignGen construction experiments used before the registry —
    // resolving a synthetic name here is bit-identical to the old path.
    for (const WorkloadParams &params : workloadTable()) {
        WorkloadInfo info;
        info.name = params.name;
        info.description = params.suite;
        info.make = [&params](const SysConfig &cfg, int coreId,
                              std::uint64_t seed) {
            DAPPER_LINT_ALLOW(registry-only,
                              "this IS the registry's own built-in factory "
                              "closure for the synthetic population; every "
                              "consumer still resolves BenignGen by name");
            return std::make_unique<BenignGen>(params, cfg, coreId,
                                               seed);
        };
        add(std::move(info));
    }
}

WorkloadRegistry &
WorkloadRegistry::instance()
{
    static WorkloadRegistry registry;
    return registry;
}

void
WorkloadRegistry::normalize(WorkloadInfo &info)
{
    if (!info.make)
        throw std::invalid_argument("workload '" + info.name +
                                    "' has no factory");
    if (info.name.find('+') != std::string::npos)
        throw std::invalid_argument(
            "workload name '" + info.name +
            "' must not contain '+' (reserved for per-core lists)");
}

const WorkloadInfo &
WorkloadRegistry::ensureTrace(const std::string &path)
{
    const std::string name = "dtr:" + path;
    if (const WorkloadInfo *info = find(name))
        return *info;
    return add(makeTraceWorkload(name, path,
                                 "ad-hoc DTR replay (" + path + ")"));
}

} // namespace dapper
