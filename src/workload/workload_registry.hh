/**
 * @file
 * WorkloadRegistry: string-keyed surface for naming *benign* per-core
 * workload generators, mirroring TrackerRegistry (src/rh/registry.hh)
 * and AttackRegistry (src/workload/attack_registry.hh). Experiments
 * resolve workloads by stable name — the 57 synthetic generators
 * ("429.mcf", "ycsb-a", ...) and DTR trace-replay workloads
 * ("trace-gc", "dtr:/path/file.dtr") share one namespace, which is what
 * lets benches, Scenario grids, and the fleet treat "workload" as an
 * open set instead of a parameter enum.
 *
 * Factory contract (seed purity): make(cfg, coreId, seed) must derive
 * every random decision from (cfg, coreId, seed) alone. For trace
 * replay the contract is stricter — the seed may perturb only the
 * replay start offset, never the record content (src/trace/README.md).
 *
 * Registration must complete before the registry is read concurrently;
 * built-ins and DAPPER_REGISTER_WORKLOAD entries register during static
 * initialization, and ensureTrace() registrations must happen on the
 * main thread before worker fan-out (same contract as the other
 * registries).
 */

#ifndef DAPPER_WORKLOAD_WORKLOAD_REGISTRY_HH
#define DAPPER_WORKLOAD_WORKLOAD_REGISTRY_HH

#include <functional>
#include <memory>
#include <string>

#include "src/common/config.hh"
#include "src/common/registry.hh"
#include "src/workload/trace_gen.hh"

namespace dapper {

/** One registered workload: stable name, capability metadata, factory. */
struct WorkloadInfo
{
    /// Stable CLI / JSON name ("429.mcf", "trace-gc"). Must not contain
    /// '+', which joins per-core workload lists into one canonical name.
    std::string name;
    /// Suite for synthetic workloads, source description for traces.
    std::string description;
    /// Capability: replays a checked-in / captured DTR trace
    /// (src/trace/replay.hh); false for a synthetic BenignGen.
    bool isTrace = false;
    /// Build one core's generator. Seed-pure (see file comment).
    std::function<std::unique_ptr<TraceGen>(
        const SysConfig &, int coreId, std::uint64_t seed)>
        make;
};

/**
 * Name -> WorkloadInfo registry (mechanics in src/common/registry.hh).
 * Entry addresses are stable for the process lifetime.
 */
class WorkloadRegistry : public NamedRegistry<WorkloadInfo>
{
  public:
    static WorkloadRegistry &instance();

    /**
     * Register (idempotently) a replay workload named "dtr:<path>" for
     * an arbitrary DTR file and return its entry. Main-thread-only,
     * before worker fan-out — the registry is read lock-free by grid
     * workers. The file itself is opened lazily at make() time.
     */
    const WorkloadInfo &ensureTrace(const std::string &path);

  private:
    WorkloadRegistry(); ///< Registers the 57 synthetic workloads.

    void normalize(WorkloadInfo &info) override;
};

namespace detail {
struct WorkloadRegistrar
{
    explicit WorkloadRegistrar(WorkloadInfo info)
    {
        WorkloadRegistry::instance().add(std::move(info));
    }
};
} // namespace detail

/** Register a workload from its own translation unit (see
 *  DAPPER_REGISTER_TRACKER for the pattern). The argument is any
 *  WorkloadInfo expression — a braced literal or a factory call. */
#define DAPPER_REGISTER_WORKLOAD(token, ...)                               \
    static const ::dapper::detail::WorkloadRegistrar                       \
        dapperWorkloadRegistrar_##token(__VA_ARGS__)

} // namespace dapper

#endif // DAPPER_WORKLOAD_WORKLOAD_REGISTRY_HH
