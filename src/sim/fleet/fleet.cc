#include "src/sim/fleet/fleet.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include <fcntl.h>
#include <poll.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "src/common/check.hh"
#include "src/common/journal.hh"

namespace dapper {

namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kFleetFormatVersion = 1;

double
nowSec()
{
    DAPPER_LINT_ALLOW(seed-purity,
                      "wall-clock feeds only watchdog timeouts, heartbeat "
                      "stamps, and retry backoff in the campaign runner; "
                      "per-cell simulation results derive solely from "
                      "SysConfig::seed and are unaffected");
    const auto t = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t.time_since_epoch()).count();
}

std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = 1469598103934665603ULL)
{
    for (const char ch : s) {
        h ^= static_cast<unsigned char>(ch);
        h *= 1099511628211ULL;
    }
    return h;
}

// --- coordinator/worker signal plumbing ------------------------------
// The coordinator parks stop requests behind a self-pipe so poll() wakes
// promptly; workers only need a flag checked between cells (a pending
// read() is interrupted because the handler installs without SA_RESTART).

constinit std::atomic<int> gCoordinatorStop{0};
int gSelfPipeWrite = -1;
volatile std::sig_atomic_t gWorkerStop = 0;

void
coordinatorSignalHandler(int sig)
{
    gCoordinatorStop.store(sig, std::memory_order_relaxed);
    if (gSelfPipeWrite >= 0) {
        const char byte = 1;
        [[maybe_unused]] ssize_t n = ::write(gSelfPipeWrite, &byte, 1);
    }
}

void
workerSignalHandler(int)
{
    gWorkerStop = 1;
}

/** RAII: install @p handler for SIGINT/SIGTERM (and ignore SIGPIPE),
 *  restoring the previous dispositions on destruction. */
class ScopedSignalHandlers
{
  public:
    explicit ScopedSignalHandlers(void (*handler)(int))
    {
        struct sigaction action = {};
        action.sa_handler = handler;
        sigemptyset(&action.sa_mask);
        action.sa_flags = 0; // No SA_RESTART: reads/polls must wake.
        ::sigaction(SIGINT, &action, &oldInt_);
        ::sigaction(SIGTERM, &action, &oldTerm_);
        struct sigaction ignore = {};
        ignore.sa_handler = SIG_IGN;
        sigemptyset(&ignore.sa_mask);
        ::sigaction(SIGPIPE, &ignore, &oldPipe_);
    }

    ~ScopedSignalHandlers()
    {
        ::sigaction(SIGINT, &oldInt_, nullptr);
        ::sigaction(SIGTERM, &oldTerm_, nullptr);
        ::sigaction(SIGPIPE, &oldPipe_, nullptr);
    }

  private:
    struct sigaction oldInt_ = {};
    struct sigaction oldTerm_ = {};
    struct sigaction oldPipe_ = {};
};

std::string
shardJournalName(std::size_t shard)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "shard_%04zu.journal", shard);
    return buf;
}

std::string
sanitizeMessage(std::string msg)
{
    for (char &ch : msg)
        if (ch == '\n' || ch == '\r')
            ch = ' ';
    if (msg.size() > 200)
        msg.resize(200);
    return msg;
}

// --- payload codecs --------------------------------------------------

std::string
encodeHeader(std::uint64_t campaignId, std::uint32_t shard)
{
    ByteWriter w;
    w.putU32(kFleetFormatVersion);
    w.putU64(campaignId);
    w.putU32(shard);
    return w.take();
}

/** Tombstone (Timeout/Crash) and Quarantine records share one shape. */
std::string
encodeFailure(const std::string &fingerprint, const std::string &label,
              std::uint32_t attempts, const std::string &message)
{
    ByteWriter w;
    w.putString(fingerprint);
    w.putString(label);
    w.putU32(attempts);
    w.putString(message);
    return w.take();
}

// --- shard journals --------------------------------------------------

/** One shard-journal record, decoded once by its type. A Result stays
 *  encoded past its fingerprint (decodeFleetResult), so readers that
 *  only compare fingerprints never rebuild its StatDict. */
struct ShardRecord
{
    FleetRecord type = FleetRecord::Header;
    std::uint32_t formatVersion = 0; ///< Header.
    std::uint64_t campaignId = 0;    ///< Header.
    std::string fingerprint;      ///< Every type but Header.
    std::string label;            ///< Timeout, Crash, Quarantine.
    std::uint32_t attempts = 0;   ///< Timeout, Crash, Quarantine.
    std::string message;          ///< Timeout, Crash, Quarantine.
    const std::string *payload = nullptr; ///< The encoded record.
};

ShardRecord
decodeShardRecord(const JournalRecord &record)
{
    ShardRecord out;
    out.type = static_cast<FleetRecord>(record.type);
    out.payload = &record.payload;
    ByteReader r(record.payload);
    switch (out.type) {
      case FleetRecord::Header:
        out.formatVersion = r.getU32();
        out.campaignId = r.getU64();
        break;
      case FleetRecord::Result:
        out.fingerprint = r.getString(); // encodeFleetResult's first field.
        break;
      case FleetRecord::Timeout:
      case FleetRecord::Crash:
      case FleetRecord::Quarantine:
        out.fingerprint = r.getString();
        out.label = r.getString();
        out.attempts = r.getU32();
        out.message = r.getString();
        break;
    }
    return out;
}

/** Record counts of one shard journal (manifest.json's "shards"). */
struct ShardSummary
{
    std::string journal; ///< File name.
    std::size_t records = 0;
    std::size_t results = 0;
    std::size_t timeouts = 0;
    std::size_t crashes = 0;
    std::size_t quarantines = 0;
};

/**
 * The one reader of a campaign's shard journals: every shard_*.journal
 * in @p dir, including those of an earlier run with another shard
 * count, in file-name order. Each record is decoded once and handed to
 * @p visit with its journal's path. With @p recover a torn tail is
 * truncated first, which is only safe while no worker is alive.
 */
std::vector<ShardSummary>
readShardJournals(
    const std::string &dir, bool recover,
    const std::function<void(const std::string &, const ShardRecord &)>
        &visit)
{
    std::vector<std::string> names;
    for (const auto &entry : fs::directory_iterator(dir)) {
        std::string name = entry.path().filename().string();
        if (name.starts_with("shard_") && name.ends_with(".journal"))
            names.push_back(std::move(name));
    }
    std::sort(names.begin(), names.end());
    std::vector<ShardSummary> summaries;
    for (const std::string &name : names) {
        const std::string path = dir + "/" + name;
        const JournalScan scan =
            recover ? recoverJournalFile(path) : scanJournalFile(path);
        ShardSummary summary;
        summary.journal = name;
        summary.records = scan.records.size();
        for (const JournalRecord &record : scan.records) {
            const ShardRecord decoded = decodeShardRecord(record);
            switch (decoded.type) {
              case FleetRecord::Result: ++summary.results; break;
              case FleetRecord::Timeout: ++summary.timeouts; break;
              case FleetRecord::Crash: ++summary.crashes; break;
              case FleetRecord::Quarantine: ++summary.quarantines; break;
              case FleetRecord::Header: break;
            }
            visit(path, decoded);
        }
        summaries.push_back(std::move(summary));
    }
    return summaries;
}

/** Whether @p scan holds a Result record for fingerprint @p fp. */
bool
hasResult(const JournalScan &scan, const std::string &fp)
{
    for (const JournalRecord &record : scan.records)
        if (static_cast<FleetRecord>(record.type) == FleetRecord::Result &&
            decodeShardRecord(record).fingerprint == fp)
            return true;
    return false;
}

} // namespace

double
fleetBackoffSeconds(int attempt, double baseSec, double capSec)
{
    if (attempt < 1)
        return 0.0;
    double delay = baseSec;
    for (int i = 1; i < attempt && delay < capSec; ++i)
        delay *= 2.0;
    return std::min(delay, capSec);
}

std::size_t
fleetShardOf(const std::string &fingerprint, std::size_t shards)
{
    DAPPER_CHECK(shards > 0, "fleetShardOf needs at least one shard");
    return static_cast<std::size_t>(fnv1a(fingerprint)) % shards;
}

std::string
encodeFleetResult(const ScenarioResult &row,
                  const std::string &fingerprint)
{
    ByteWriter w;
    w.putString(fingerprint);
    w.putString(row.scenario.labelText());
    const RunResult &run = row.run;
    w.putU32(static_cast<std::uint32_t>(run.coreIpc.size()));
    for (const double ipc : run.coreIpc)
        w.putF64(ipc);
    w.putF64(run.benignIpcMean);
    w.putU64(run.mitigations);
    w.putU64(run.bulkResets);
    w.putU64(run.counterTraffic);
    w.putU64(run.activations);
    w.putU32(run.maxDamage);
    w.putU64(run.rhViolations);
    w.putF64(run.energyNj);
    w.putU32(static_cast<std::uint32_t>(run.stats.entries().size()));
    for (const StatEntry &e : run.stats.entries()) {
        w.putString(e.name);
        w.putU8(e.type == StatEntry::Type::U64 ? 0 : 1);
        if (e.type == StatEntry::Type::U64)
            w.putU64(e.u64);
        else
            w.putF64(e.f64);
    }
    w.putU32(static_cast<std::uint32_t>(run.stats.series().size()));
    for (const StatSeries &s : run.stats.series()) {
        w.putString(s.name);
        w.putU32(static_cast<std::uint32_t>(s.values.size()));
        for (const double v : s.values)
            w.putF64(v);
    }
    w.putF64(row.baselineIpc);
    w.putF64(row.normalized);
    return w.take();
}

FleetCellResult
decodeFleetResult(const std::string &payload)
{
    ByteReader r(payload);
    FleetCellResult out;
    out.fingerprint = r.getString();
    out.label = r.getString();
    const std::uint32_t cores = r.getU32();
    out.run.coreIpc.resize(cores);
    for (std::uint32_t i = 0; i < cores; ++i)
        out.run.coreIpc[i] = r.getF64();
    out.run.benignIpcMean = r.getF64();
    out.run.mitigations = r.getU64();
    out.run.bulkResets = r.getU64();
    out.run.counterTraffic = r.getU64();
    out.run.activations = r.getU64();
    out.run.maxDamage = r.getU32();
    out.run.rhViolations = r.getU64();
    out.run.energyNj = r.getF64();
    const std::uint32_t entries = r.getU32();
    for (std::uint32_t i = 0; i < entries; ++i) {
        std::string name = r.getString();
        if (r.getU8() == 0)
            out.run.stats.addU64(std::move(name), r.getU64());
        else
            out.run.stats.addF64(std::move(name), r.getF64());
    }
    const std::uint32_t series = r.getU32();
    for (std::uint32_t i = 0; i < series; ++i) {
        std::string name = r.getString();
        std::vector<double> values(r.getU32());
        for (double &v : values)
            v = r.getF64();
        out.run.stats.addSeries(std::move(name), std::move(values));
    }
    out.baselineIpc = r.getF64();
    out.normalized = r.getF64();
    if (!r.done())
        throw std::runtime_error("fleet result payload has trailing bytes");
    return out;
}

// ---------------------------------------------------------------------
// Coordinator.
// ---------------------------------------------------------------------

namespace {

/** One distinct fingerprint's scheduling state. */
struct CellState
{
    enum class Phase
    {
        Pending,
        InFlight,
        Done,
        Quarantined,
    };

    std::size_t scenarioIndex = 0; ///< Representative grid index.
    std::string fingerprint;
    std::string label;
    std::size_t shard = 0;
    Phase phase = Phase::Pending;
    std::uint32_t attempts = 0; ///< Failed attempts (incl. prior runs).
    double notBefore = 0.0;     ///< Earliest re-dispatch (backoff).
    std::string lastError;
};

struct WorkerProc
{
    pid_t pid = -1;
    int cmdFd = -1; ///< Parent writes "R <cell>\n" / "Q\n".
    int evtFd = -1; ///< Parent reads "D <cell>\n" / "F <cell> <msg>\n".
    std::size_t shard = 0;
    long inFlight = -1; ///< Unique-cell index, -1 when idle.
    double startedAt = 0.0;
    std::string lineBuf;
};

class Coordinator
{
  public:
    Coordinator(const FleetOptions &options,
                std::vector<Scenario> scenarios)
        : options_(options), scenarios_(std::move(scenarios))
    {
        DAPPER_CHECK(!options_.dir.empty(),
                     "FleetOptions::dir is required");
        DAPPER_CHECK(options_.maxAttempts >= 1,
                     "FleetOptions::maxAttempts must be >= 1");
    }

    FleetReport run();

  private:
    // Setup.
    void indexCells();
    std::vector<ShardSummary> scanExistingJournals();
    void ensureShardHeaders(const std::vector<ShardSummary> &existing);

    // Event loop.
    void spawnMissingWorkers();
    void spawnWorker(std::size_t shard);
    void dispatchIdleWorkers();
    bool allSettled() const;
    double nextDeadlineIn() const;
    void pollOnce();
    void handleWorkerLine(WorkerProc &worker, const std::string &line);
    void handleWorkerExit(std::size_t workerIndex, bool watchdogKill);
    void enforceWatchdog();
    void beginDrain();
    void shutdownWorkers();

    // Cell bookkeeping.
    void completeCell(std::size_t cell);
    void failCell(std::size_t cell, FleetRecord kind,
                  const std::string &message);

    // Finish.
    FleetReport finalize();
    void writeManifest(const FleetReport &report,
                       const std::vector<ShardSummary> &shards);

    [[noreturn]] void workerMain(std::size_t shard, int cmdFd,
                                 int evtFd);

    std::string shardPath(std::size_t shard) const
    {
        return options_.dir + "/" + shardJournalName(shard);
    }

    JournalWriter &parentWriter(std::size_t shard);

    FleetOptions options_;
    std::vector<Scenario> scenarios_;
    std::size_t shards_ = 0;
    std::uint64_t campaignId_ = 0;

    std::vector<CellState> cells_; ///< One per unique fingerprint.
    std::unordered_map<std::string, std::size_t> cellOf_; ///< fp -> idx.
    std::vector<std::size_t> cellOfScenario_; ///< grid idx -> cell idx.
    std::vector<std::deque<std::size_t>> shardQueues_;

    std::vector<WorkerProc> workers_; ///< Index == shard.
    std::map<std::size_t, JournalWriter> parentWriters_;

    std::size_t resumed_ = 0;
    std::size_t executedThisRun_ = 0;
    std::size_t timeouts_ = 0;
    std::size_t crashes_ = 0;
    std::size_t retries_ = 0;
    bool draining_ = false;
    int selfPipeRead_ = -1;
};

JournalWriter &
Coordinator::parentWriter(std::size_t shard)
{
    JournalWriter &writer = parentWriters_[shard];
    if (!writer.isOpen())
        writer.open(shardPath(shard));
    return writer;
}

void
Coordinator::indexCells()
{
    cellOfScenario_.resize(scenarios_.size());
    std::uint64_t id = 1469598103934665603ULL;
    for (std::size_t i = 0; i < scenarios_.size(); ++i) {
        const std::string fp = scenarios_[i].fingerprint();
        id = fnv1a(fp, id);
        auto [it, inserted] = cellOf_.emplace(fp, cells_.size());
        if (inserted) {
            CellState cell;
            cell.scenarioIndex = i;
            cell.fingerprint = fp;
            cell.label = scenarios_[i].labelText();
            cells_.push_back(std::move(cell));
        }
        cellOfScenario_[i] = it->second;
    }
    campaignId_ = id;

    if (options_.shards > 0)
        shards_ = static_cast<std::size_t>(options_.shards);
    else
        shards_ = std::max<std::size_t>(
            1, std::min<std::size_t>(
                   cells_.size(),
                   std::thread::hardware_concurrency() > 0
                       ? std::thread::hardware_concurrency()
                       : 1));
    for (CellState &cell : cells_)
        cell.shard = fleetShardOf(cell.fingerprint, shards_);
    shardQueues_.assign(shards_, {});
}

std::vector<ShardSummary>
Coordinator::scanExistingJournals()
{
    // Resume: every shard journal contributes completed fingerprints
    // and attempt bookkeeping. No worker is alive yet, so torn tails
    // are truncated.
    return readShardJournals(
        options_.dir, /*recover=*/true,
        [&](const std::string &path, const ShardRecord &record) {
            if (record.type == FleetRecord::Header) {
                if (record.formatVersion != kFleetFormatVersion)
                    throw std::runtime_error(
                        "fleet: " + path + " has journal format version " +
                        std::to_string(record.formatVersion) +
                        ", this build reads version " +
                        std::to_string(kFleetFormatVersion) +
                        "; use a fresh directory");
                if (record.campaignId != campaignId_)
                    throw std::runtime_error(
                        "fleet: " + path +
                        " belongs to a different campaign (grid or "
                        "config changed); use a fresh directory");
                return;
            }
            const auto it = cellOf_.find(record.fingerprint);
            if (it == cellOf_.end())
                return; // Stale cell from a superseded grid: ignore.
            CellState &cell = cells_[it->second];
            switch (record.type) {
              case FleetRecord::Result:
                if (cell.phase == CellState::Phase::Pending) {
                    cell.phase = CellState::Phase::Done;
                    ++resumed_;
                }
                break;
              case FleetRecord::Timeout:
              case FleetRecord::Crash:
                cell.attempts = std::max(cell.attempts, record.attempts);
                cell.lastError = record.message;
                break;
              case FleetRecord::Quarantine:
                if (cell.phase == CellState::Phase::Pending) {
                    cell.phase = CellState::Phase::Quarantined;
                    cell.attempts = record.attempts;
                    cell.lastError = record.message;
                }
                break;
              case FleetRecord::Header: break;
            }
        });
}

void
Coordinator::ensureShardHeaders(const std::vector<ShardSummary> &existing)
{
    for (std::size_t shard = 0; shard < shards_; ++shard) {
        const std::string name = shardJournalName(shard);
        const bool hasRecords = std::any_of(
            existing.begin(), existing.end(),
            [&](const ShardSummary &summary) {
                return summary.journal == name && summary.records > 0;
            });
        if (!hasRecords)
            parentWriter(shard).append(
                static_cast<std::uint8_t>(FleetRecord::Header),
                encodeHeader(campaignId_,
                             static_cast<std::uint32_t>(shard)));
    }
}

void
Coordinator::spawnWorker(std::size_t shard)
{
    int cmdPipe[2];
    int evtPipe[2];
    if (::pipe(cmdPipe) != 0 || ::pipe(evtPipe) != 0)
        throw std::runtime_error(std::string("fleet: pipe: ") +
                                 std::strerror(errno));
    std::fflush(nullptr); // No buffered bytes may be flushed twice.
    const pid_t pid = ::fork();
    if (pid < 0)
        throw std::runtime_error(std::string("fleet: fork: ") +
                                 std::strerror(errno));
    if (pid == 0) {
        // Worker. Close every parent-side descriptor we inherited —
        // holding another worker's event-pipe write end would defeat
        // the parent's EOF-based death detection.
        ::close(cmdPipe[1]);
        ::close(evtPipe[0]);
        if (selfPipeRead_ >= 0)
            ::close(selfPipeRead_);
        if (gSelfPipeWrite >= 0)
            ::close(gSelfPipeWrite);
        for (const WorkerProc &other : workers_) {
            if (other.cmdFd >= 0)
                ::close(other.cmdFd);
            if (other.evtFd >= 0)
                ::close(other.evtFd);
        }
        workerMain(shard, cmdPipe[0], evtPipe[1]);
    }
    ::close(cmdPipe[0]);
    ::close(evtPipe[1]);
    WorkerProc &worker = workers_[shard];
    worker.pid = pid;
    worker.cmdFd = cmdPipe[1];
    worker.evtFd = evtPipe[0];
    worker.inFlight = -1;
    worker.lineBuf.clear();
}

void
Coordinator::spawnMissingWorkers()
{
    if (draining_)
        return;
    for (std::size_t shard = 0; shard < shards_; ++shard)
        if (workers_[shard].pid < 0 && !shardQueues_[shard].empty())
            spawnWorker(shard);
}

void
Coordinator::dispatchIdleWorkers()
{
    if (draining_)
        return;
    const double now = nowSec();
    for (std::size_t shard = 0; shard < shards_; ++shard) {
        WorkerProc &worker = workers_[shard];
        if (worker.pid < 0 || worker.inFlight >= 0)
            continue;
        std::deque<std::size_t> &queue = shardQueues_[shard];
        // Pick the first ready cell; keep backoff-parked cells queued.
        for (std::size_t scanned = 0; scanned < queue.size(); ++scanned) {
            const std::size_t cell = queue.front();
            queue.pop_front();
            if (cells_[cell].phase != CellState::Phase::Pending)
                continue; // Completed/quarantined while queued.
            if (cells_[cell].notBefore > now) {
                queue.push_back(cell);
                continue;
            }
            char line[64];
            const int len = std::snprintf(line, sizeof(line), "R %zu\n",
                                          cell);
            if (!writeFully(worker.cmdFd, line,
                            static_cast<std::size_t>(len))) {
                // Worker died between poll rounds; requeue, EOF path
                // will handle the corpse.
                queue.push_front(cell);
                break;
            }
            cells_[cell].phase = CellState::Phase::InFlight;
            worker.inFlight = static_cast<long>(cell);
            worker.startedAt = nowSec();
            break;
        }
    }
}

bool
Coordinator::allSettled() const
{
    for (const CellState &cell : cells_)
        if (cell.phase == CellState::Phase::Pending ||
            cell.phase == CellState::Phase::InFlight)
            return false;
    return true;
}

double
Coordinator::nextDeadlineIn() const
{
    const double now = nowSec();
    double wait = 0.5;
    for (const WorkerProc &worker : workers_)
        if (worker.pid >= 0 && worker.inFlight >= 0 &&
            options_.watchdogSec > 0.0)
            wait = std::min(wait, worker.startedAt +
                                      options_.watchdogSec - now);
    for (const CellState &cell : cells_)
        if (cell.phase == CellState::Phase::Pending &&
            cell.notBefore > now)
            wait = std::min(wait, cell.notBefore - now);
    return std::max(wait, 0.0);
}

void
Coordinator::handleWorkerLine(WorkerProc &worker, const std::string &line)
{
    if (line.empty())
        return;
    std::size_t cell = 0;
    if (line[0] == 'D' && std::sscanf(line.c_str(), "D %zu", &cell) == 1) {
        if (worker.inFlight == static_cast<long>(cell))
            worker.inFlight = -1;
        completeCell(cell);
    } else if (line[0] == 'F') {
        char msg[256] = "";
        if (std::sscanf(line.c_str(), "F %zu %255[^\n]", &cell, msg) >= 1) {
            if (worker.inFlight == static_cast<long>(cell))
                worker.inFlight = -1;
            failCell(cell, FleetRecord::Crash, msg);
        }
    }
}

void
Coordinator::completeCell(std::size_t cell)
{
    CellState &state = cells_[cell];
    if (state.phase == CellState::Phase::Done)
        return;
    state.phase = CellState::Phase::Done;
    ++executedThisRun_;
}

void
Coordinator::failCell(std::size_t cell, FleetRecord kind,
                      const std::string &message)
{
    CellState &state = cells_[cell];
    if (state.phase == CellState::Phase::Done ||
        state.phase == CellState::Phase::Quarantined)
        return;
    state.attempts += 1;
    state.lastError = sanitizeMessage(message);
    if (kind == FleetRecord::Timeout)
        ++timeouts_;
    else
        ++crashes_;
    parentWriter(state.shard)
        .append(static_cast<std::uint8_t>(kind),
                encodeFailure(state.fingerprint, state.label,
                              state.attempts, state.lastError));
    if (state.attempts >=
        static_cast<std::uint32_t>(options_.maxAttempts)) {
        state.phase = CellState::Phase::Quarantined;
        parentWriter(state.shard)
            .append(static_cast<std::uint8_t>(FleetRecord::Quarantine),
                    encodeFailure(state.fingerprint, state.label,
                                  state.attempts, state.lastError));
        std::fprintf(stderr,
                     "fleet: quarantined after %u attempts: %s (%s)\n",
                     state.attempts, state.label.c_str(),
                     state.lastError.c_str());
    } else {
        state.phase = CellState::Phase::Pending;
        state.notBefore =
            nowSec() + fleetBackoffSeconds(
                           static_cast<int>(state.attempts),
                           options_.backoffBaseSec, options_.backoffCapSec);
        shardQueues_[state.shard].push_back(cell);
        ++retries_;
    }
}

void
Coordinator::handleWorkerExit(std::size_t workerIndex, bool watchdogKill)
{
    WorkerProc &worker = workers_[workerIndex];
    int status = 0;
    while (::waitpid(worker.pid, &status, 0) < 0 && errno == EINTR) {
    }
    ::close(worker.cmdFd);
    ::close(worker.evtFd);
    const long inFlight = worker.inFlight;
    worker.pid = -1;
    worker.cmdFd = worker.evtFd = -1;
    worker.inFlight = -1;

    // The worker is dead, so its journal tail is quiescent: truncate
    // any torn record a SIGKILL mid-append left behind.
    const JournalScan scan = recoverJournalFile(shardPath(worker.shard));

    if (inFlight >= 0) {
        const auto cell = static_cast<std::size_t>(inFlight);
        // The record may have been completely written even though the
        // "D" event never arrived (killed between append and report):
        // trust the journal, never re-run a completed cell.
        if (hasResult(scan, cells_[cell].fingerprint)) {
            completeCell(cell);
        } else if (watchdogKill) {
            failCell(cell, FleetRecord::Timeout,
                     "watchdog: cell exceeded " +
                         std::to_string(options_.watchdogSec) + "s");
        } else {
            failCell(cell, FleetRecord::Crash,
                     WIFSIGNALED(status)
                         ? std::string("worker killed by signal ") +
                               std::to_string(WTERMSIG(status))
                         : std::string("worker exited with status ") +
                               std::to_string(WEXITSTATUS(status)));
        }
    }
}

void
Coordinator::enforceWatchdog()
{
    if (options_.watchdogSec <= 0.0)
        return;
    const double now = nowSec();
    for (std::size_t i = 0; i < workers_.size(); ++i) {
        WorkerProc &worker = workers_[i];
        if (worker.pid < 0 || worker.inFlight < 0)
            continue;
        if (now - worker.startedAt < options_.watchdogSec)
            continue;
        std::fprintf(stderr, "fleet: watchdog killing shard %zu (cell %s)\n",
                     worker.shard,
                     cells_[static_cast<std::size_t>(worker.inFlight)]
                         .label.c_str());
        ::kill(worker.pid, SIGKILL);
        handleWorkerExit(i, /*watchdogKill=*/true);
    }
}

void
Coordinator::beginDrain()
{
    if (draining_)
        return;
    draining_ = true;
    std::fprintf(stderr,
                 "fleet: drain requested; letting workers finish their "
                 "in-flight cells\n");
    for (const WorkerProc &worker : workers_)
        if (worker.pid >= 0)
            ::kill(worker.pid, SIGTERM);
}

void
Coordinator::pollOnce()
{
    std::vector<struct pollfd> fds;
    std::vector<std::size_t> workerOf;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
        if (workers_[i].pid < 0)
            continue;
        fds.push_back({workers_[i].evtFd, POLLIN, 0});
        workerOf.push_back(i);
    }
    fds.push_back({selfPipeRead_, POLLIN, 0});

    const int timeoutMs = static_cast<int>(nextDeadlineIn() * 1000) + 10;
    const int ready = ::poll(fds.data(),
                             static_cast<nfds_t>(fds.size()), timeoutMs);
    if (ready < 0 && errno != EINTR)
        throw std::runtime_error(std::string("fleet: poll: ") +
                                 std::strerror(errno));

    if (gCoordinatorStop.load(std::memory_order_relaxed) != 0)
        beginDrain();
    // Drain the self-pipe regardless of which wakeup fired.
    char scratch[64];
    while (::read(selfPipeRead_, scratch, sizeof(scratch)) > 0) {
    }

    for (std::size_t k = 0; k + 1 < fds.size() + 1 && k < workerOf.size();
         ++k) {
        if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0)
            continue;
        WorkerProc &worker = workers_[workerOf[k]];
        if (worker.pid < 0)
            continue; // Reaped earlier in this loop.
        char buf[512];
        for (;;) {
            const ssize_t n = ::read(worker.evtFd, buf, sizeof(buf));
            if (n > 0) {
                worker.lineBuf.append(buf, static_cast<std::size_t>(n));
                std::size_t nl;
                while ((nl = worker.lineBuf.find('\n')) !=
                       std::string::npos) {
                    const std::string line = worker.lineBuf.substr(0, nl);
                    worker.lineBuf.erase(0, nl + 1);
                    handleWorkerLine(worker, line);
                }
                if (n < static_cast<ssize_t>(sizeof(buf)))
                    break;
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            if (n == 0)
                handleWorkerExit(workerOf[k], /*watchdogKill=*/false);
            break;
        }
    }

    enforceWatchdog();
}

void
Coordinator::shutdownWorkers()
{
    for (WorkerProc &worker : workers_) {
        if (worker.pid >= 0)
            writeFully(worker.cmdFd, "Q\n", 2); // Dead: reaped below.
    }
    for (std::size_t i = 0; i < workers_.size(); ++i)
        if (workers_[i].pid >= 0)
            handleWorkerExit(i, /*watchdogKill=*/false);
}

FleetReport
Coordinator::run()
{
    fs::create_directories(options_.dir);
    indexCells();
    ensureShardHeaders(scanExistingJournals());

    for (std::size_t i = 0; i < cells_.size(); ++i)
        if (cells_[i].phase == CellState::Phase::Pending)
            shardQueues_[cells_[i].shard].push_back(i);

    workers_.assign(shards_, {});
    for (std::size_t shard = 0; shard < shards_; ++shard)
        workers_[shard].shard = shard;

    int selfPipe[2];
    if (::pipe(selfPipe) != 0)
        throw std::runtime_error(std::string("fleet: self-pipe: ") +
                                 std::strerror(errno));
    ::fcntl(selfPipe[0], F_SETFL, O_NONBLOCK);
    ::fcntl(selfPipe[1], F_SETFL, O_NONBLOCK);
    selfPipeRead_ = selfPipe[0];
    gSelfPipeWrite = selfPipe[1];
    gCoordinatorStop.store(0, std::memory_order_relaxed);
    ScopedSignalHandlers handlers(coordinatorSignalHandler);

    while (!allSettled()) {
        spawnMissingWorkers();
        dispatchIdleWorkers();
        if (draining_) {
            // Only in-flight cells still matter; once every worker has
            // drained (finished its cell and exited), stop.
            bool anyWorker = false;
            for (const WorkerProc &worker : workers_)
                anyWorker = anyWorker || worker.pid >= 0;
            if (!anyWorker)
                break;
        }
        pollOnce();
    }
    shutdownWorkers();

    gSelfPipeWrite = -1;
    ::close(selfPipe[0]);
    ::close(selfPipe[1]);
    selfPipeRead_ = -1;
    parentWriters_.clear();

    return finalize();
}

FleetReport
Coordinator::finalize()
{
    // The journals — not coordinator memory — are the source of truth
    // for the merge: rescan every shard file, map fingerprint ->
    // decoded result, then emit rows in grid order.
    FleetReport report;
    report.cells = scenarios_.size();
    report.uniqueCells = cells_.size();
    report.resumed = resumed_;
    report.executed = executedThisRun_;
    report.timeouts = timeouts_;
    report.crashes = crashes_;
    report.retries = retries_;
    report.drained = draining_;

    std::unordered_map<std::string, FleetCellResult> results;
    std::map<std::string, FleetQuarantineEntry> quarantined;
    const std::vector<ShardSummary> shards = readShardJournals(
        options_.dir, /*recover=*/false,
        [&](const std::string &, const ShardRecord &record) {
            if (cellOf_.find(record.fingerprint) == cellOf_.end())
                return; // Header, or a cell of a superseded grid.
            if (record.type == FleetRecord::Result) {
                if (results.find(record.fingerprint) != results.end())
                    ++report.duplicateResults;
                else
                    results.emplace(record.fingerprint,
                                    decodeFleetResult(*record.payload));
            } else if (record.type == FleetRecord::Quarantine) {
                quarantined.emplace(
                    record.fingerprint,
                    FleetQuarantineEntry{record.fingerprint, record.label,
                                         record.attempts, record.message});
            }
        });
    for (auto &[fp, entry] : quarantined)
        if (results.find(fp) == results.end())
            report.quarantined.push_back(entry);

    std::vector<ScenarioResult> rows;
    rows.reserve(scenarios_.size());
    for (std::size_t i = 0; i < scenarios_.size(); ++i) {
        const std::string &fp = cells_[cellOfScenario_[i]].fingerprint;
        const auto it = results.find(fp);
        if (it == results.end()) {
            // Quarantined cells become explicit gap rows so the merged
            // table keeps the grid shape and downstream renderings show
            // "--" / null instead of silently losing the cell. Cells
            // merely drained-before-run stay absent — they were never
            // attempted and a resume will still fill them.
            const auto q = quarantined.find(fp);
            if (q == quarantined.end())
                continue;
            ScenarioResult row;
            row.scenario = scenarios_[i];
            row.quarantined = true;
            row.quarantineError = q->second.lastError;
            rows.push_back(std::move(row));
            continue;
        }
        ScenarioResult row;
        row.scenario = scenarios_[i];
        row.run = it->second.run;
        row.baselineIpc = it->second.baselineIpc;
        row.normalized = it->second.normalized;
        rows.push_back(std::move(row));
    }
    report.completed = results.size();
    report.table = ResultTable(std::move(rows));

    writeManifest(report, shards);
    return report;
}

void
Coordinator::writeManifest(const FleetReport &report,
                           const std::vector<ShardSummary> &shards)
{
    const std::string path = options_.dir + "/manifest.json";
    const std::string tmp = path + ".tmp";
    std::FILE *out = std::fopen(tmp.c_str(), "w");
    if (out == nullptr)
        throw std::runtime_error("fleet: cannot write " + tmp);
    std::fprintf(out,
                 "{\n  \"schema_version\": 1,\n"
                 "  \"campaign_id\": \"%016llx\",\n"
                 "  \"cells\": %zu,\n  \"unique_cells\": %zu,\n"
                 "  \"completed\": %zu,\n  \"resumed\": %zu,\n"
                 "  \"executed\": %zu,\n  \"timeouts\": %zu,\n"
                 "  \"crashes\": %zu,\n  \"retries\": %zu,\n"
                 "  \"duplicate_results\": %zu,\n"
                 "  \"drained\": %s,\n",
                 static_cast<unsigned long long>(campaignId_),
                 report.cells, report.uniqueCells, report.completed,
                 report.resumed, report.executed, report.timeouts,
                 report.crashes, report.retries, report.duplicateResults,
                 report.drained ? "true" : "false");
    std::fputs("  \"quarantined\": [", out);
    for (std::size_t i = 0; i < report.quarantined.size(); ++i) {
        const FleetQuarantineEntry &entry = report.quarantined[i];
        std::fputs(i == 0 ? "\n    {\"label\": " : ",\n    {\"label\": ",
                   out);
        writeJsonString(out, entry.label);
        std::fprintf(out, ", \"attempts\": %u, \"last_error\": ",
                     entry.attempts);
        writeJsonString(out, entry.lastError);
        std::fputs(", \"fingerprint\": ", out);
        writeJsonString(out, entry.fingerprint);
        std::fputs("}", out);
    }
    std::fputs(report.quarantined.empty() ? "],\n" : "\n  ],\n", out);
    std::fputs("  \"shards\": [", out);
    for (std::size_t i = 0; i < shards.size(); ++i) {
        const ShardSummary &shard = shards[i];
        std::fprintf(out,
                     "%s\n    {\"journal\": \"%s\", \"records\": %zu, "
                     "\"results\": %zu, \"timeouts\": %zu, "
                     "\"crashes\": %zu, \"quarantines\": %zu}",
                     i == 0 ? "" : ",", shard.journal.c_str(),
                     shard.records, shard.results, shard.timeouts,
                     shard.crashes, shard.quarantines);
    }
    std::fputs(shards.empty() ? "]\n}\n" : "\n  ]\n}\n", out);
    std::fclose(out);
    fs::rename(tmp, path);
}

// ---------------------------------------------------------------------
// Worker process.
// ---------------------------------------------------------------------

void
Coordinator::workerMain(std::size_t shard, int cmdFd, int evtFd)
{
    // Replace the coordinator's handlers: a drain signal must only set
    // the worker flag (checked between cells), never run coordinator
    // logic in the child.
    struct sigaction action = {};
    action.sa_handler = workerSignalHandler;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0; // No SA_RESTART: interrupt the command read.
    ::sigaction(SIGINT, &action, nullptr);
    ::sigaction(SIGTERM, &action, nullptr);

    JournalWriter journal;
    Runner runner(1); // Workers are the parallelism: one thread each.
    try {
        journal.open(shardPath(shard));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "fleet worker %zu: %s\n", shard, e.what());
        ::_exit(1);
    }

    std::string lineBuf;
    char buf[256];
    for (;;) {
        if (gWorkerStop != 0)
            ::_exit(0); // Drain: in-flight cell already finished.
        const std::size_t nl = lineBuf.find('\n');
        if (nl == std::string::npos) {
            const ssize_t n = ::read(cmdFd, buf, sizeof(buf));
            if (n < 0 && errno == EINTR)
                continue; // Signal: loop re-checks the stop flag.
            if (n <= 0)
                ::_exit(0); // Coordinator is gone.
            lineBuf.append(buf, static_cast<std::size_t>(n));
            continue;
        }
        const std::string line = lineBuf.substr(0, nl);
        lineBuf.erase(0, nl + 1);
        if (line.empty())
            continue;
        if (line[0] == 'Q')
            ::_exit(0);
        std::size_t cell = 0;
        if (std::sscanf(line.c_str(), "R %zu", &cell) != 1 ||
            cell >= cells_.size())
            ::_exit(2); // Protocol violation: refuse to guess.

        const Scenario &scenario = scenarios_[cells_[cell].scenarioIndex];
        const std::string context =
            cells_[cell].label + " [" + cells_[cell].fingerprint + "]";
        std::string event;
        try {
            ScopedCheckContext checkContext(context.c_str());
            const ScenarioResult row =
                options_.executor ? options_.executor(runner, scenario)
                                  : runner.run(scenario);
            journal.append(
                static_cast<std::uint8_t>(FleetRecord::Result),
                encodeFleetResult(row, cells_[cell].fingerprint));
            if (options_.syncRecords)
                journal.sync();
            event = "D " + std::to_string(cell) + "\n";
        } catch (const std::exception &e) {
            event = "F " + std::to_string(cell) + " " +
                    sanitizeMessage(e.what()) + "\n";
        }
        if (!writeFully(evtFd, event.data(), event.size()))
            ::_exit(0); // Coordinator is gone; result is journaled.
    }
}

} // namespace

FleetCampaign::FleetCampaign(FleetOptions options)
    : options_(std::move(options))
{
}

FleetReport
FleetCampaign::run(const ScenarioGrid &grid)
{
    return run(grid.expand());
}

FleetReport
FleetCampaign::run(const std::vector<Scenario> &cells)
{
    Coordinator coordinator(options_, cells);
    return coordinator.run();
}

} // namespace dapper
