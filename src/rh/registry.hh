/**
 * @file
 * TrackerRegistry: the public, string-keyed surface for naming RowHammer
 * defenses. Every tracker is registered under a stable CLI name (e.g.
 * "dapper-h", "hydra") together with its capability metadata — whether
 * it reserves LLC ways, how it adjusts the config (mitigation command
 * flavour, blast radius), and which tailored Perf-Attack targets it —
 * and a factory closure. Experiments (Scenario, dapper_sim, bench_util)
 * resolve trackers exclusively through this registry. The registry's
 * constructor (src/rh/registry.cc) is the one table of built-in
 * trackers.
 *
 * Adding a tracker touches neither that table nor anything else shared:
 * register an entry from the tracker's own translation unit with
 * DAPPER_REGISTER_TRACKER (see src/sim/README.md, "Adding a new tracker
 * in one file").
 */

#ifndef DAPPER_RH_REGISTRY_HH
#define DAPPER_RH_REGISTRY_HH

#include <functional>
#include <memory>
#include <string>

#include "src/common/config.hh"
#include "src/common/registry.hh"
#include "src/rh/tracker.hh"

namespace dapper {

class Llc;

/** One registered defense: stable name, metadata, and factories. */
struct TrackerInfo
{
    /// Stable lowercase CLI / JSON name ("dapper-h", "pride-rfmsb").
    std::string name;
    /// Display name used in printed tables ("DAPPER-H", "PrIDE-RFMsb").
    std::string displayName;
    /// Whether the tracker reserves half the LLC ways (START).
    bool reservesLlc = false;
    /// Stable name of the tailored Perf-Attack targeting this tracker
    /// ("hydra-rcc" for "hydra"), or "none".
    std::string counterAttack = "none";
    /// Command-flavour / blast-radius adjustments; run before any
    /// component copies the config.
    std::function<void(SysConfig &)> adjustConfig = {};
    /// Build the tracker against an already-adjusted config. May return
    /// nullptr (the "none" entry: unprotected system).
    std::function<std::unique_ptr<Tracker>(SysConfig &, Llc *)> make;

    bool isNone() const { return name == "none"; }

    /**
     * Table-III storage estimate without building a System: adjust a
     * copy of @p cfg, construct the tracker with no LLC, and read its
     * storage(). This is the path tab03 and the "tracker.storage.*"
     * stats both resolve through, keeping the printed Table III and
     * the exported telemetry provably the same numbers
     * (tests/registry_test.cc pins them against each other).
     */
    StorageEstimate
    storage(SysConfig cfg) const
    {
        if (adjustConfig)
            adjustConfig(cfg);
        const std::unique_ptr<Tracker> tracker = make(cfg, nullptr);
        return tracker ? tracker->storage() : StorageEstimate{};
    }
};

/**
 * Name -> TrackerInfo registry (mechanics in
 * src/common/registry.hh). Entries live forever and never move, so
 * `const TrackerInfo *` handles stay valid for the process lifetime.
 *
 * Registration (add / DAPPER_REGISTER_TRACKER) must complete before the
 * registry is read concurrently; in practice all registration happens
 * during static initialization, and sweep worker threads only read.
 */
class TrackerRegistry : public NamedRegistry<TrackerInfo>
{
  public:
    static TrackerRegistry &instance();

  private:
    TrackerRegistry(); ///< The table of built-in trackers.

    void normalize(TrackerInfo &info) override;
};

namespace detail {
struct TrackerRegistrar
{
    explicit TrackerRegistrar(TrackerInfo info)
    {
        TrackerRegistry::instance().add(std::move(info));
    }
};
} // namespace detail

/**
 * Register a tracker from its own translation unit:
 *
 *   DAPPER_REGISTER_TRACKER(myTracker, {
 *       .name = "my-tracker",
 *       .displayName = "MyTracker",
 *       .make = [](SysConfig &cfg, Llc *) {
 *           return std::make_unique<MyTracker>(cfg);
 *       },
 *   });
 *
 * dapper_core is an OBJECT library, so every translation unit (and its
 * registrars) is linked into each binary even if nothing else
 * references it.
 */
#define DAPPER_REGISTER_TRACKER(token, ...)                                \
    static const ::dapper::detail::TrackerRegistrar                        \
        dapperTrackerRegistrar_##token(::dapper::TrackerInfo __VA_ARGS__)

} // namespace dapper

#endif // DAPPER_RH_REGISTRY_HH
