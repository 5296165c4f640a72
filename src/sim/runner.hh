/**
 * @file
 * Runner: executes Scenarios and ScenarioGrids, owns the insecure-
 * baseline cache, and returns structured results.
 *
 * Each Runner instance memoizes its baselines privately — there is no
 * process-global cache, so two Runners never share state and a Runner
 * is dropped together with everything it cached. Keys include the
 * config fingerprint (attacker-free baselines canonicalize the
 * defense-only fields a tracker-less, attacker-less run provably never
 * reads — so an nRH sweep shares one baseline), the baseline's attack,
 * the *effective* horizon (an explicit horizon and an equivalent
 * windows-derived one hit the same entry; different horizons never
 * collide). Each baseline is simulated exactly once
 * even under concurrent grid workers (std::call_once per entry), and an
 * unprotected run executed directly doubles as the cached baseline for
 * its own configuration.
 *
 * Grids fan out through ParallelRunner seed-pure: results come back
 * ordered by scenario index, independent of thread count.
 */

#ifndef DAPPER_SIM_RUNNER_HH
#define DAPPER_SIM_RUNNER_HH

#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/sim/scenario.hh"

namespace dapper {

/** One executed scenario: spec + raw stats + optional normalization. */
struct ScenarioResult
{
    Scenario scenario;
    RunResult run;
    /// Benign-IPC geomean of the insecure baseline run; 0 for Raw.
    double baselineIpc = 0.0;
    /// run.benignIpcMean / baselineIpc; 0 for Baseline::Raw.
    double normalized = 0.0;
    /// Fleet-quarantined cell: the scenario identifies the hole, `run`
    /// is empty, and renderings emit explicit gaps ("--" / null) with a
    /// "quarantined" marker instead of silently dropping the row.
    bool quarantined = false;
    std::string quarantineError; ///< Last failure, when quarantined.
};

/**
 * Mean / spread over one cell's seed replicas (the ScenarioGrid::seeds
 * Monte-Carlo axis). ciHalf is the 95% confidence half-width using
 * Student's t on the sample stddev — the interval the probabilistic
 * trackers (PARA / PrIDE / START) need instead of single-seed points.
 */
struct SeedSummary
{
    double mean = 0.0;
    double stddev = 0.0; ///< Sample standard deviation (n-1); 0 if n<2.
    double ciHalf = 0.0; ///< 95% CI half-width; 0 if n < 2.
    std::size_t n = 0;
};

/** Summarize one replica group (used by ResultTable::seedSummaries). */
SeedSummary summarizeSeeds(const std::vector<double> &values);

/** Write @p s to @p out as a quoted, escaped JSON string (the one
 *  escaper behind result-table and fleet-manifest JSON). */
void writeJsonString(std::FILE *out, const std::string &s);

/**
 * Index-ordered scenario results. Renders to machine-readable JSON /
 * CSV; the benches keep their own printf table layouts and read values
 * through seedSummaries() / normalizedValues() / at().
 */
class ResultTable
{
  public:
    ResultTable() = default;
    explicit ResultTable(std::vector<ScenarioResult> rows);

    std::size_t size() const { return rows_.size(); }
    const ScenarioResult &at(std::size_t i) const { return rows_.at(i); }
    const std::vector<ScenarioResult> &rows() const { return rows_; }

    /** normalized per row, in index order (geomeanSlice-ready). */
    std::vector<double> normalizedValues() const;

    /**
     * Reduce consecutive groups of @p nSeeds rows (seeds as the
     * innermost grid axis) of `normalized` into mean / stddev / 95% CI
     * columns. Row count must be a multiple of nSeeds.
     */
    std::vector<SeedSummary> seedSummaries(std::size_t nSeeds) const;

    /** Machine-readable renderings; @p benchName tags the output. */
    void writeJson(std::FILE *out, const std::string &benchName) const;
    void writeCsv(std::FILE *out) const;

    /** One scenario's JSON object (exactly the element writeJson emits
     *  into "scenarios") — shared with the fleet merger so merged and
     *  straight-through renderings are bit-identical by construction. */
    static void writeJsonRow(std::FILE *out, const ScenarioResult &row);

  private:
    std::vector<ScenarioResult> rows_;
};

class Runner
{
  public:
    /** @param jobs worker threads for grid fan-out (0: DAPPER_JOBS or
     *  hardware concurrency, as ParallelRunner). */
    explicit Runner(int jobs = 0);
    ~Runner();

    Runner(const Runner &) = delete;
    Runner &operator=(const Runner &) = delete;

    /** Run one scenario (plus its memoized baseline when the scenario
     *  asks for normalization). */
    ScenarioResult run(const Scenario &scenario);

    /** Raw stats only; never triggers a baseline simulation (an
     *  unprotected run does seed the baseline cache for reuse). */
    RunResult runRaw(const Scenario &scenario);

    /** Normalized performance shorthand (scenario must not be Raw). */
    double normalized(const Scenario &scenario);

    /** Fan the vector through ParallelRunner; results index-ordered. */
    ResultTable run(const std::vector<Scenario> &scenarios);
    ResultTable run(const ScenarioGrid &grid);

    /** Distinct baselines simulated so far (tests / diagnostics). */
    std::size_t baselineCacheSize() const;

  private:
    struct BaselineEntry;

    std::shared_ptr<BaselineEntry> entryFor(const std::string &key);
    double baselineIpc(const Scenario &scenario);

    int jobs_;
    mutable std::mutex mutex_;
    std::map<std::string, std::shared_ptr<BaselineEntry>> baselines_;
};

} // namespace dapper

#endif // DAPPER_SIM_RUNNER_HH
