/**
 * @file
 * Declarative experiment specification.
 *
 * A Scenario is a value type bundling everything one simulation needs:
 * {workload, attack, tracker, baseline, horizon, config overrides},
 * with builder-style setters that resolve trackers and attacks through
 * the string registries:
 *
 *   Scenario s = Scenario()
 *                    .workload("429.mcf")
 *                    .tracker("dapper-h")
 *                    .attack("refresh")
 *                    .baseline(Baseline::SameAttack)
 *                    .nRH(125);
 *
 * A ScenarioGrid cross-products axes (workload population, tracker
 * list, nRH sweep, arbitrary labelled mutators) into an ordered
 * scenario vector: axes expand in the order they were added, first axis
 * outermost — so grid.workloads(W).cells(C) enumerates scenario
 * index i = w * C.size() + c, exactly the layout the bench tables
 * print. Expansion is deterministic; Runner (src/sim/runner.hh)
 * executes grids seed-pure and returns index-ordered results.
 */

#ifndef DAPPER_SIM_SCENARIO_HH
#define DAPPER_SIM_SCENARIO_HH

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/experiment.hh"

namespace dapper {

namespace detail {

/**
 * '|'-joined rendering of every SysConfig field (17-digit precision for
 * doubles). Injective over configs: two distinct configs can never
 * share a fingerprint. Shared by the Runner baseline cache key and the
 * Scenario cell fingerprint.
 */
std::string configFingerprint(const SysConfig &c);

} // namespace detail

class Scenario
{
  public:
    Scenario();

    // --- builder setters (chainable) --------------------------------
    Scenario &workload(std::string name);
    /**
     * Multi-program workload list: benign core i runs names[i % n]
     * (WorkloadRegistry names; synthetic and trace workloads mix
     * freely). The scenario's canonical workload name becomes the
     * '+'-joined list — registry names may not contain '+', so the join
     * is injective and the single-string identity paths (fingerprint,
     * baseline keys, JSON) carry multi-program cells unchanged. A
     * one-element list is identical to workload(); empty throws.
     */
    Scenario &workloads(const std::vector<std::string> &names);
    /** Resolve by registry name; throws std::invalid_argument listing
     *  the available names when unknown. */
    Scenario &tracker(const std::string &name);
    Scenario &tracker(const TrackerInfo &info);
    Scenario &attack(const std::string &name);
    Scenario &attack(const AttackInfo &info);
    Scenario &baseline(Baseline b);
    /** Explicit horizon in ticks; 0 restores windows()-based sizing. */
    Scenario &horizon(Tick ticks);
    /** Horizon as a number of (scaled) tREFW windows (default 2). */
    Scenario &windows(int n);
    /** Replace the whole config (overrides below tweak in place). */
    Scenario &config(const SysConfig &cfg);
    Scenario &nRH(int n);
    Scenario &timeScale(double s);
    Scenario &seed(std::uint64_t s);
    /** Arbitrary config override for axes the setters don't cover. */
    Scenario &tweak(const std::function<void(SysConfig &)> &fn);
    /** Free-form cell label carried into ResultTable / JSON output. */
    Scenario &label(std::string text);

    // --- getters ----------------------------------------------------
    /** Canonical name: the single workload, or the '+'-joined list. */
    const std::string &workloadName() const { return workload_; }
    /** Per-core workload list; size 1 for homogeneous scenarios. */
    std::vector<std::string> workloadList() const;
    const TrackerInfo &trackerInfo() const { return *tracker_; }
    const AttackInfo &attackInfo() const { return *attack_; }
    Baseline baselineKind() const { return baseline_; }
    const SysConfig &configRef() const { return cfg_; }
    SysConfig &configRef() { return cfg_; }
    const std::string &labelText() const { return label_; }

    /** Horizon actually simulated: the explicit override, else
     *  windows * tREFW under this scenario's config. */
    Tick effectiveHorizon() const;

    /**
     * Canonical cell identity: workload, attack, tracker, baseline
     * kind, *effective* horizon, and the full config fingerprint
     * (every field, including the seed). Two scenarios with the same
     * fingerprint produce bit-identical results (seed purity), which is
     * what makes the fingerprint usable as a campaign resume key: the
     * fleet runner (src/sim/fleet/) shards cells by it, journals
     * completed fingerprints, and skips them on resume — no cell ever
     * runs twice. The label is deliberately NOT part of the identity
     * (it is presentation, not physics).
     */
    std::string fingerprint() const;

  private:
    SysConfig cfg_;
    std::string workload_ = "429.mcf";
    /// Multi-program list; empty means homogeneous workload_.
    std::vector<std::string> workloads_;
    const TrackerInfo *tracker_;
    const AttackInfo *attack_;
    Baseline baseline_ = Baseline::Raw;
    Tick horizon_ = 0;
    int windows_ = 2;
    std::string label_;
};

/**
 * One (tracker, attack, baseline) table cell — the shape nearly every
 * figure bench's columns take. Empty tracker/attack strings and an
 * unset baseline leave the corresponding Scenario field untouched, so
 * cell axes compose with other axes that own those fields.
 */
struct ScenarioCell
{
    std::string label;
    std::string tracker;
    std::string attack;
    std::optional<Baseline> baseline;
};

class ScenarioGrid
{
  public:
    using Mutator = std::function<void(Scenario &)>;
    /** One labelled value along an axis. */
    using AxisValue = std::pair<std::string, Mutator>;

    explicit ScenarioGrid(Scenario base);

    /** Generic axis: applied in axis order, first axis outermost. */
    ScenarioGrid &axis(std::vector<AxisValue> values);

    // Sugar axes (all forward to axis()).
    ScenarioGrid &workloads(const std::vector<std::string> &names);
    /** Multi-program axis: each entry is one per-core workload list,
     *  labelled by its '+'-joined canonical name. */
    ScenarioGrid &
    workloadSets(const std::vector<std::vector<std::string>> &sets);
    ScenarioGrid &trackers(const std::vector<std::string> &names);
    ScenarioGrid &attacks(const std::vector<std::string> &names);
    ScenarioGrid &nRH(const std::vector<int> &thresholds);
    /**
     * Monte-Carlo seed replication axis: @p n cells labelled
     * "seed=0".."seed=n-1", each offsetting the scenario's own
     * SysConfig::seed by k at expansion time (offsets compose with a
     * seed set on the base scenario or by an earlier axis). Added last
     * (= innermost), consecutive index groups of n are replicas of one
     * cell — the layout ResultTable::seedSummaries() reduces into
     * mean / stddev / confidence-interval columns.
     */
    ScenarioGrid &seeds(int n);
    ScenarioGrid &baselines(const std::vector<Baseline> &baselines);
    ScenarioGrid &cells(const std::vector<ScenarioCell> &cells);

    /** Cross-product, deterministic: index = ((a0 * |A1| + a1) * |A2| +
     *  a2) ... with axis 0 added first. Labels of all axes join into
     *  each scenario's label ('/'-separated, empty parts skipped). */
    std::vector<Scenario> expand() const;

    std::size_t size() const;
    std::size_t axes() const { return axes_.size(); }
    std::size_t axisSize(std::size_t i) const { return axes_[i].size(); }
    /** Flat index of one coordinate tuple (size() == axes()). */
    std::size_t indexOf(const std::vector<std::size_t> &coords) const;

  private:
    Scenario base_;
    std::vector<std::vector<AxisValue>> axes_;
};

} // namespace dapper

#endif // DAPPER_SIM_SCENARIO_HH
