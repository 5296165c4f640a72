/**
 * @file
 * dapper-fleet: crash-safe, resumable campaign runner.
 *
 * A *campaign* treats a whole ScenarioGrid (10k-1M cells of tracker x
 * attack x nRH x seed) as the unit of work. Cells are deduplicated and
 * sharded across worker *processes* by scenario fingerprint
 * (Scenario::fingerprint()); each worker executes its cells one at a
 * time and streams every finished cell as a checksummed record into an
 * append-only per-shard journal (src/common/journal.hh). The
 * coordinator merges completed shards into a ResultTable
 * deterministically — rows in grid order, never arrival order — so a
 * fleet campaign renders bit-identical BENCH_all.json-compatible JSON
 * to a straight-through single-process Runner run.
 *
 * Robustness contract (see src/sim/README.md "Fleet campaigns"):
 *
 *  - Watchdog: a cell exceeding FleetOptions::watchdogSec wall-clock
 *    gets its worker SIGKILLed; the coordinator records a `timeout`
 *    tombstone in the shard journal and the campaign continues.
 *  - Retry / backoff: a failed cell (worker crash, watchdog kill, or
 *    an exception inside the cell) is re-dispatched after capped
 *    exponential backoff (fleetBackoffSeconds). After
 *    FleetOptions::maxAttempts failures the cell lands in the
 *    quarantine list — recorded in the journal, reported, and rendered
 *    as an explicit gap row in the merged table — instead of aborting
 *    the campaign.
 *  - Graceful drain: SIGINT/SIGTERM let every worker finish its
 *    in-flight cell, flush, and exit 0; the coordinator merges what
 *    completed and reports drained=true.
 *  - Resume: a re-run over the same campaign directory diffs completed
 *    fingerprints out of the journals (a torn tail record left by a
 *    SIGKILL is detected by checksum and truncated) and only executes
 *    the remainder — no cell ever runs twice.
 */

#ifndef DAPPER_SIM_FLEET_FLEET_HH
#define DAPPER_SIM_FLEET_FLEET_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/sim/runner.hh"

namespace dapper {

/** Journal record types used by fleet shard journals. */
enum class FleetRecord : std::uint8_t
{
    Header = 1,     ///< Campaign id + shard index; first record of a file.
    Result = 2,     ///< One completed cell (encodeFleetResult payload).
    Timeout = 3,    ///< Watchdog tombstone: cell exceeded watchdogSec.
    Crash = 4,      ///< Worker died / cell threw; attempt bookkeeping.
    Quarantine = 5, ///< Cell failed maxAttempts times; terminally parked.
};

struct FleetOptions
{
    /// Campaign directory (shard journals + manifest.json). Required.
    std::string dir;
    /// Worker processes; 0 picks min(hardware concurrency, cells).
    int shards = 0;
    /// Per-cell wall-clock watchdog in seconds; 0 disables.
    double watchdogSec = 0.0;
    /// Attempts (1 + retries) before a cell is quarantined.
    int maxAttempts = 3;
    /// Capped exponential backoff between attempts.
    double backoffBaseSec = 0.25;
    double backoffCapSec = 8.0;
    /// fdatasync every record (power-loss durability; see journal.hh).
    bool syncRecords = false;
    /**
     * Test hook: how a worker executes one cell. Defaults to
     * `runner.run(scenario)`. Runs inside the forked worker process —
     * fault-injection tests substitute executors that wedge, throw, or
     * SIGKILL themselves at chosen cells.
     */
    std::function<ScenarioResult(Runner &, const Scenario &)> executor;
};

struct FleetQuarantineEntry
{
    std::string fingerprint;
    std::string label;
    std::uint32_t attempts = 0;
    std::string lastError;
};

struct FleetReport
{
    std::size_t cells = 0;       ///< Grid cells (incl. duplicates).
    std::size_t uniqueCells = 0; ///< Distinct fingerprints.
    std::size_t completed = 0;   ///< Unique cells with a journal result.
    std::size_t resumed = 0;     ///< Completed before this run started.
    std::size_t executed = 0;    ///< Completed by this run.
    std::size_t timeouts = 0;    ///< Watchdog kills this run.
    std::size_t crashes = 0;     ///< Worker deaths / cell throws this run.
    std::size_t retries = 0;     ///< Re-dispatches after failure this run.
    /// Result records whose fingerprint already had one (contract says
    /// this is always 0; surfaced so tests and the manifest can prove it).
    std::size_t duplicateResults = 0;
    std::vector<FleetQuarantineEntry> quarantined; ///< Cumulative.
    bool drained = false; ///< Stopped early by SIGINT/SIGTERM.
    /// Rows in grid order. Quarantined cells appear as explicit gap
    /// rows (ScenarioResult::quarantined) rendering as "--" / null;
    /// only cells drained before ever running are absent.
    ResultTable table;

    bool complete() const { return completed == uniqueCells; }
    /// Every cell was at least attempted to a verdict: completed or
    /// quarantined (the gap-row publishing condition for benches).
    bool accounted() const
    {
        return completed + quarantined.size() == uniqueCells;
    }
};

/** Backoff before attempt @p attempt+1 after @p attempt failures:
 *  min(cap, base * 2^(attempt-1)); 0 for attempt < 1. */
double fleetBackoffSeconds(int attempt, double baseSec, double capSec);

/** Stable shard assignment: FNV-1a(fingerprint) % shards. */
std::size_t fleetShardOf(const std::string &fingerprint,
                         std::size_t shards);

/** Decoded FleetRecord::Result payload. */
struct FleetCellResult
{
    std::string fingerprint;
    std::string label;
    RunResult run;
    double baselineIpc = 0.0;
    double normalized = 0.0;
};

/** Binary (bit-exact doubles) result payload codec. decode throws
 *  std::runtime_error on malformed input. */
std::string encodeFleetResult(const ScenarioResult &row,
                              const std::string &fingerprint);
FleetCellResult decodeFleetResult(const std::string &payload);

class FleetCampaign
{
  public:
    explicit FleetCampaign(FleetOptions options);

    /** Run (or resume) the campaign; blocks until every unique cell is
     *  completed or quarantined, or a drain signal arrives. Writes
     *  manifest.json into the campaign directory before returning. */
    FleetReport run(const ScenarioGrid &grid);
    FleetReport run(const std::vector<Scenario> &cells);

  private:
    FleetOptions options_;
};

} // namespace dapper

#endif // DAPPER_SIM_FLEET_FLEET_HH
