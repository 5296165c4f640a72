#include "src/sim/runner.hh"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "src/sim/parallel_runner.hh"

namespace dapper {

namespace {

/**
 * Full-config baseline key. Every SysConfig field is included — a
 * baseline run has no tracker, so some fields cannot matter today, but
 * a complete key can never silently alias two different baselines.
 *
 * Exception, so nRH-sweep benches don't re-simulate bit-identical
 * NoAttack baselines once per threshold: when the baseline has no
 * attacker, the defense-only parameters are canonicalized out of the
 * key. Without a tracker no mitigation path runs (blast radius,
 * command costs, bulk penalties are unreachable) and nRH only feeds
 * GroundTruth's violation *stats*, never timing — while the cached
 * value is just benignIpcMean. With an attacker present the full key
 * stays: attack generators receive the config and may key their
 * behavior on it.
 */
std::string
fingerprint(SysConfig c, const std::string &workload,
            const std::string &attack, bool attackerPresent,
            Tick horizon)
{
    if (!attackerPresent) {
        const SysConfig canon;
        c.nRH = canon.nRH;
        c.rowGroupSize = canon.rowGroupSize;
        c.dapperSResetUs = canon.dapperSResetUs;
        c.blastRadius = canon.blastRadius;
        c.mitigationCmd = canon.mitigationCmd;
        c.vrrNs = canon.vrrNs;
        c.rfmSbNs = canon.rfmSbNs;
        c.drfmSbNs = canon.drfmSbNs;
        c.bulkRefreshRankMs = canon.bulkRefreshRankMs;
        c.bulkRefreshChannelMs = canon.bulkRefreshChannelMs;
    }
    std::ostringstream os;
    os << workload << '|' << attack << '|' << horizon << '|'
       << detail::configFingerprint(c);
    return os.str();
}

const char *
baselineName(Baseline b)
{
    switch (b) {
      case Baseline::Raw: return "raw";
      case Baseline::NoAttack: return "no-attack";
      case Baseline::SameAttack: return "same-attack";
    }
    return "?";
}

} // namespace

void
writeJsonString(std::FILE *out, const std::string &s)
{
    std::fputc('"', out);
    for (const char ch : s) {
        switch (ch) {
          case '"': std::fputs("\\\"", out); break;
          case '\\': std::fputs("\\\\", out); break;
          case '\n': std::fputs("\\n", out); break;
          case '\t': std::fputs("\\t", out); break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20)
                std::fprintf(out, "\\u%04x", ch);
            else
                std::fputc(ch, out);
        }
    }
    std::fputc('"', out);
}

/** One memoized baseline. The once-flag serializes the (expensive)
 *  simulation so concurrent grid workers asking for the same key run it
 *  exactly once. */
struct Runner::BaselineEntry
{
    std::once_flag once;
    double value = 0.0;
};

Runner::Runner(int jobs) : jobs_(jobs) {}

Runner::~Runner() = default;

double
Runner::baselineIpc(const Scenario &scenario)
{
    const AttackInfo &noneAttack = AttackRegistry::instance().at("none");
    const TrackerInfo &noneTracker =
        TrackerRegistry::instance().at("none");
    const AttackInfo &baseAttack =
        scenario.baselineKind() == Baseline::SameAttack
            ? scenario.attackInfo()
            : noneAttack;
    const Tick horizon = scenario.effectiveHorizon();
    const std::string key = fingerprint(
        scenario.configRef(), scenario.workloadName(), baseAttack.name,
        !baseAttack.isNone(), horizon);

    std::shared_ptr<BaselineEntry> entry = entryFor(key);
    std::call_once(entry->once, [&] {
        entry->value = runOnce(scenario.configRef(),
                               scenario.workloadList(), baseAttack,
                               noneTracker, horizon)
                           .benignIpcMean;
    });
    return entry->value;
}

std::shared_ptr<Runner::BaselineEntry>
Runner::entryFor(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = baselines_[key];
    if (!slot)
        slot = std::make_shared<BaselineEntry>();
    return slot;
}

RunResult
Runner::runRaw(const Scenario &scenario)
{
    const RunResult result =
        runOnce(scenario.configRef(), scenario.workloadList(),
                scenario.attackInfo(), scenario.trackerInfo(),
                scenario.effectiveHorizon());
    // An unprotected run *is* the insecure baseline for its own
    // (workload, attack, config, horizon): remember it, so a
    // later normalized scenario reuses this simulation instead of
    // repeating it (seed-purity makes the values bit-identical).
    if (scenario.trackerInfo().isNone()) {
        const std::string key =
            fingerprint(scenario.configRef(), scenario.workloadName(),
                        scenario.attackInfo().name,
                        !scenario.attackInfo().isNone(),
                        scenario.effectiveHorizon());
        std::shared_ptr<BaselineEntry> entry = entryFor(key);
        std::call_once(entry->once, [&] {
            entry->value = result.benignIpcMean;
        });
    }
    return result;
}

ScenarioResult
Runner::run(const Scenario &scenario)
{
    ScenarioResult result;
    result.scenario = scenario;
    result.run = runRaw(scenario);
    if (scenario.baselineKind() != Baseline::Raw) {
        result.baselineIpc = baselineIpc(scenario);
        result.normalized =
            result.baselineIpc > 0.0
                ? result.run.benignIpcMean / result.baselineIpc
                : 0.0;
    }
    return result;
}

double
Runner::normalized(const Scenario &scenario)
{
    if (scenario.baselineKind() == Baseline::Raw)
        throw std::invalid_argument(
            "normalized() needs a scenario with a baseline");
    return run(scenario).normalized;
}

ResultTable
Runner::run(const std::vector<Scenario> &scenarios)
{
    ParallelRunner pool(jobs_);
    return ResultTable(pool.map(scenarios.size(), [&](std::size_t i) {
        return run(scenarios[i]);
    }));
}

ResultTable
Runner::run(const ScenarioGrid &grid)
{
    return run(grid.expand());
}

std::size_t
Runner::baselineCacheSize() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return baselines_.size();
}

ResultTable::ResultTable(std::vector<ScenarioResult> rows)
    : rows_(std::move(rows))
{
}

std::vector<double>
ResultTable::normalizedValues() const
{
    std::vector<double> out;
    out.reserve(rows_.size());
    for (const ScenarioResult &row : rows_)
        out.push_back(row.normalized);
    return out;
}

SeedSummary
summarizeSeeds(const std::vector<double> &values)
{
    SeedSummary s;
    s.n = values.size();
    if (s.n == 0)
        return s;
    double sum = 0.0;
    for (const double v : values)
        sum += v;
    s.mean = sum / static_cast<double>(s.n);
    if (s.n < 2)
        return s;
    double sq = 0.0;
    for (const double v : values)
        sq += (v - s.mean) * (v - s.mean);
    s.stddev = std::sqrt(sq / static_cast<double>(s.n - 1));
    // Two-sided 95% Student-t quantiles; beyond 30 dof the normal 1.96
    // is within 2%.
    static const double kT95[] = {0,     12.706, 4.303, 3.182, 2.776,
                                  2.571, 2.447,  2.365, 2.306, 2.262,
                                  2.228, 2.201,  2.179, 2.160, 2.145,
                                  2.131, 2.120,  2.110, 2.101, 2.093,
                                  2.086, 2.080,  2.074, 2.069, 2.064,
                                  2.060, 2.056,  2.052, 2.048, 2.045,
                                  2.042};
    const std::size_t dof = s.n - 1;
    const double t = dof < std::size(kT95) ? kT95[dof] : 1.96;
    s.ciHalf = t * s.stddev / std::sqrt(static_cast<double>(s.n));
    return s;
}

std::vector<SeedSummary>
ResultTable::seedSummaries(std::size_t nSeeds) const
{
    if (nSeeds == 0 || rows_.size() % nSeeds != 0)
        throw std::invalid_argument(
            "seedSummaries: row count is not a multiple of the seed "
            "replica count");
    std::vector<SeedSummary> out;
    out.reserve(rows_.size() / nSeeds);
    std::vector<double> group(nSeeds);
    for (std::size_t base = 0; base < rows_.size(); base += nSeeds) {
        for (std::size_t k = 0; k < nSeeds; ++k)
            group[k] = rows_[base + k].normalized;
        out.push_back(summarizeSeeds(group));
    }
    return out;
}

void
ResultTable::writeJson(std::FILE *out, const std::string &benchName) const
{
    std::fputs("{\n  \"bench\": ", out);
    writeJsonString(out, benchName);
    std::fputs(",\n  \"schema_version\": 1,\n  \"scenarios\": [", out);
    for (std::size_t i = 0; i < rows_.size(); ++i) {
        std::fputs(i == 0 ? "\n" : ",\n", out);
        writeJsonRow(out, rows_[i]);
    }
    std::fputs("\n  ]\n}\n", out);
}

void
ResultTable::writeJsonRow(std::FILE *out, const ScenarioResult &row)
{
    {
        const Scenario &s = row.scenario;
        const SysConfig &c = s.configRef();
        std::fputs("    {\"workload\": ", out);
        writeJsonString(out, s.workloadName());
        std::fputs(", \"tracker\": ", out);
        writeJsonString(out, s.trackerInfo().name);
        std::fputs(", \"attack\": ", out);
        writeJsonString(out, s.attackInfo().name);
        std::fprintf(out, ", \"baseline\": \"%s\"",
                     baselineName(s.baselineKind()));
        std::fputs(", \"label\": ", out);
        writeJsonString(out, s.labelText());
        std::fprintf(
            out,
            ",\n     \"nrh\": %d, \"time_scale\": %.17g, "
            "\"llc_bytes\": %llu, \"channels\": %d, \"seed\": %llu, "
            "\"horizon\": %llu",
            c.nRH, c.timeScale,
            static_cast<unsigned long long>(c.llcBytes), c.channels,
            static_cast<unsigned long long>(c.seed),
            static_cast<unsigned long long>(s.effectiveHorizon()));
        if (row.quarantined) {
            // Explicit gap: the cell's identity with null metrics, so a
            // partially-quarantined campaign still renders every cell
            // and consumers can't mistake a hole for "not run".
            std::fputs(",\n     \"quarantined\": true, "
                       "\"quarantine_error\": ",
                       out);
            writeJsonString(out, row.quarantineError);
            std::fputs(
                ",\n     \"benign_ipc\": null, \"normalized\": null, "
                "\"baseline_ipc\": null",
                out);
            std::fputs(
                ",\n     \"mitigations\": null, \"bulk_resets\": null, "
                "\"counter_traffic\": null, \"activations\": null, "
                "\"max_damage\": null, \"rh_violations\": null, "
                "\"energy_nj\": null",
                out);
            std::fputs(",\n     \"stats\": null, \"series\": null}",
                       out);
            return;
        }
        std::fprintf(
            out,
            ",\n     \"benign_ipc\": %.17g, \"normalized\": %.17g, "
            "\"baseline_ipc\": %.17g",
            row.run.benignIpcMean, row.normalized, row.baselineIpc);
        std::fprintf(
            out,
            ",\n     \"mitigations\": %llu, \"bulk_resets\": %llu, "
            "\"counter_traffic\": %llu, \"activations\": %llu, "
            "\"max_damage\": %u, \"rh_violations\": %llu, "
            "\"energy_nj\": %.17g",
            static_cast<unsigned long long>(row.run.mitigations),
            static_cast<unsigned long long>(row.run.bulkResets),
            static_cast<unsigned long long>(row.run.counterTraffic),
            static_cast<unsigned long long>(row.run.activations),
            row.run.maxDamage,
            static_cast<unsigned long long>(row.run.rhViolations),
            row.run.energyNj);
        // Full telemetry dict (additive; the flat columns above are
        // unchanged). Scalar entries under "stats", probe time series
        // under "series", both in export (= registration) order.
        std::fputs(",\n     \"stats\": {", out);
        bool firstEntry = true;
        for (const StatEntry &e : row.run.stats.entries()) {
            if (!firstEntry)
                std::fputs(", ", out);
            firstEntry = false;
            writeJsonString(out, e.name);
            if (e.type == StatEntry::Type::U64)
                std::fprintf(out, ": %llu",
                             static_cast<unsigned long long>(e.u64));
            else
                std::fprintf(out, ": %.17g", e.f64);
        }
        std::fputs("}", out);
        std::fputs(",\n     \"series\": {", out);
        bool firstSeries = true;
        for (const StatSeries &series : row.run.stats.series()) {
            if (!firstSeries)
                std::fputs(", ", out);
            firstSeries = false;
            writeJsonString(out, series.name);
            std::fputs(": [", out);
            for (std::size_t k = 0; k < series.values.size(); ++k)
                std::fprintf(out, k == 0 ? "%.17g" : ", %.17g",
                             series.values[k]);
            std::fputs("]", out);
        }
        std::fputs("}}", out);
    }
}

void
ResultTable::writeCsv(std::FILE *out) const
{
    // Stat columns are additive after the fixed ones: the union of
    // every row's scalar stat names, ordered by first appearance (row
    // order, then export order — deterministic). Rows lacking a column
    // (e.g. "none" vs a real tracker) leave the cell empty. Series are
    // not representable in one flat row and stay JSON-only.
    std::vector<std::string> statCols;
    for (const ScenarioResult &row : rows_)
        for (const StatEntry &e : row.run.stats.entries())
            if (std::find(statCols.begin(), statCols.end(), e.name) ==
                statCols.end())
                statCols.push_back(e.name);

    std::fputs(
        "workload,tracker,attack,baseline,label,nrh,time_scale,"
        "llc_bytes,channels,seed,horizon,benign_ipc,normalized,"
        "baseline_ipc,mitigations,bulk_resets,counter_traffic,"
        "activations,max_damage,rh_violations,energy_nj",
        out);
    for (const std::string &name : statCols)
        std::fprintf(out, ",%s", name.c_str());
    std::fputc('\n', out);
    for (const ScenarioResult &row : rows_) {
        const Scenario &s = row.scenario;
        const SysConfig &c = s.configRef();
        std::fprintf(
            out, "%s,%s,%s,%s,%s,%d,%.17g,%llu,%d,%llu,%llu",
            s.workloadName().c_str(), s.trackerInfo().name.c_str(),
            s.attackInfo().name.c_str(), baselineName(s.baselineKind()),
            s.labelText().c_str(), c.nRH, c.timeScale,
            static_cast<unsigned long long>(c.llcBytes), c.channels,
            static_cast<unsigned long long>(c.seed),
            static_cast<unsigned long long>(s.effectiveHorizon()));
        if (row.quarantined) {
            // Explicit "--" gaps in the ten metric columns; the stat
            // columns stay empty like any other absent stat.
            std::fputs(",--,--,--,--,--,--,--,--,--,--", out);
            for (std::size_t k = 0; k < statCols.size(); ++k)
                std::fputc(',', out);
            std::fputc('\n', out);
            continue;
        }
        std::fprintf(
            out, ",%.17g,%.17g,%.17g,%llu,%llu,%llu,%llu,%u,%llu,%.17g",
            row.run.benignIpcMean, row.normalized, row.baselineIpc,
            static_cast<unsigned long long>(row.run.mitigations),
            static_cast<unsigned long long>(row.run.bulkResets),
            static_cast<unsigned long long>(row.run.counterTraffic),
            static_cast<unsigned long long>(row.run.activations),
            row.run.maxDamage,
            static_cast<unsigned long long>(row.run.rhViolations),
            row.run.energyNj);
        for (const std::string &name : statCols) {
            const StatEntry *e = row.run.stats.find(name);
            if (e == nullptr)
                std::fputc(',', out);
            else if (e->type == StatEntry::Type::U64)
                std::fprintf(out, ",%llu",
                             static_cast<unsigned long long>(e->u64));
            else
                std::fprintf(out, ",%.17g", e->f64);
        }
        std::fputc('\n', out);
    }
}

} // namespace dapper
