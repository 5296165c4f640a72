/**
 * @file
 * Per-channel DDR5 memory controller with command-level bank timing.
 *
 * Models the timing behaviour the DAPPER paper's Perf-Attacks exploit:
 *  - per-bank ACT/PRE/column timing (tRC, tRCD, tRP, tRAS, tWR, tCCD);
 *  - per-rank tRRD_S/tRRD_L and tFAW activation pacing;
 *  - a shared data bus (tBL occupancy per 64B burst);
 *  - periodic auto-refresh (tREFI / tRFC) per rank;
 *  - FR-FCFS scheduling with write-drain mode;
 *  - priority service of tracker-injected RH-counter traffic;
 *  - mitigation blocking windows: VRR (one bank), RFMsb / DRFMsb (same
 *    bank number across all bank groups), PRAC ABO (whole channel), and
 *    bulk "refresh all rows" structure resets (rank / channel);
 *  - BlockHammer-style activation throttling via the tracker hook.
 *
 * The controller is tick()-driven on the core clock but keeps a
 * next-work watermark so idle or blocked phases cost almost nothing.
 *
 * FR-FCFS candidate selection walks the oldest kScanWindow requests of
 * a queue in order. Each entry's earliest start comes from a per-bank
 * timing cache: at a fixed tick a bank contributes at most two start
 * values (row hit, row miss), re-derived only when the channel, rank or
 * bank generation stamp moves. See mem/README.md for the invalidation
 * contract, and auditQueues() for the runtime cross-check against a
 * brute-force recomputation that the tests exercise.
 */

#ifndef DAPPER_MEM_CONTROLLER_HH
#define DAPPER_MEM_CONTROLLER_HH

#include <cstdint>
#include <vector>

#include "src/common/arena.hh"
#include "src/common/config.hh"
#include "src/common/stats.hh"
#include "src/common/types.hh"
#include "src/energy/energy_model.hh"
#include "src/mem/request.hh"
#include "src/rh/ground_truth.hh"
#include "src/rh/tracker.hh"
#include "src/sim/scheduler.hh"

namespace dapper {

/**
 * Deterministic reservoir sampler (algorithm R with a fixed-seed LCG)
 * over read latencies, so benches can report tail latency (p99), not
 * just the mean. The same on both engines: samples are fed in
 * completion order, which the scheduler-equivalence contract pins
 * across engines.
 */
struct LatencyReservoir
{
    static constexpr std::size_t kCap = 1024;

    std::vector<Tick> samples;
    std::uint64_t seen = 0;
    std::uint64_t lcg = 0x2545F4914F6CDD1Dull;

    void
    add(Tick v)
    {
        ++seen;
        if (samples.size() < kCap) {
            samples.push_back(v);
            return;
        }
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        const std::uint64_t slot = (lcg >> 33) % seen;
        if (slot < kCap)
            samples[slot] = v;
    }

    /** Percentile over the sampled population (p in [0, 1]). */
    Tick percentile(double p) const;
};

/** Aggregate controller statistics. */
struct MemControllerStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t counterReads = 0;
    std::uint64_t counterWrites = 0;
    std::uint64_t activations = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t refreshes = 0;
    std::uint64_t vrrCommands = 0;
    std::uint64_t rfmCommands = 0;
    std::uint64_t bulkResets = 0;
    std::uint64_t throttledActs = 0;
    /// Sum of bank-blocking durations imposed by refresh/mitigations
    /// (bank-ticks; one tick of 8 blocked banks counts 8).
    Tick busyBlockedTicks = 0;
    /// 64-bit read-latency accumulation; at one read per ~10 ticks a
    /// 32-bit sum would wrap within a scaled tREFW, so the drain path
    /// checks headroom before adding (a DAPPER_CHECK: every build).
    std::uint64_t readLatencySum = 0;
    std::uint64_t readLatencyCount = 0;
    LatencyReservoir readLatency;

    double
    avgReadLatency() const
    {
        return readLatencyCount
                   ? static_cast<double>(readLatencySum) / readLatencyCount
                   : 0.0;
    }

    Tick p99ReadLatency() const { return readLatency.percentile(0.99); }

    /** Telemetry under the caller's prefix (System: "mem.<channel>."). */
    void
    exportStats(StatWriter &w) const
    {
        w.u64("reads", reads);
        w.u64("writes", writes);
        w.u64("counterReads", counterReads);
        w.u64("counterWrites", counterWrites);
        w.u64("activations", activations);
        w.u64("rowHits", rowHits);
        w.u64("rowMisses", rowMisses);
        w.u64("refreshes", refreshes);
        w.u64("vrrCommands", vrrCommands);
        w.u64("rfmCommands", rfmCommands);
        w.u64("bulkResets", bulkResets);
        w.u64("throttledActs", throttledActs);
        w.u64("busyBlockedTicks",
              static_cast<std::uint64_t>(busyBlockedTicks));
        w.u64("readLatencyCount", readLatencyCount);
        w.f64("avgReadLatency", avgReadLatency());
        w.u64("p99ReadLatency",
              static_cast<std::uint64_t>(p99ReadLatency()));
    }
};

class MemController
{
  public:
    MemController(const SysConfig &cfg, int channel, Tracker *tracker,
                  GroundTruth *groundTruth, EnergyModel *energy);

    /** Late tracker wiring (the System builds the tracker after us). */
    void setTracker(Tracker *tracker) { tracker_ = tracker; }

    /**
     * Event-driven wiring (optional): the controller broadcasts when the
     * read queue leaves the full state, since any core may be stalled on
     * readQueueFull().
     */
    void setWakeHub(WakeHub *hub) { wakeHub_ = hub; }

    /**
     * Enable the event-scheduling issue memo. Between bank/bus state
     * mutations (tracked by a generation counter), a concluded "nothing
     * can issue before T" scan stays exact: timing state only mutates
     * through issue(), refresh, and mitigations, and enqueues fold their
     * own earliest-start into T. Visits inside the memoized window then
     * skip the FR-FCFS scan entirely. The result stream is bit-identical
     * either way; the reference engine keeps it off so it reproduces the
     * pre-refactor per-tick compute schedule faithfully.
     */
    void
    setEventScheduling(bool enabled)
    {
        eventScheduling_ = enabled;
        // Drop any memo recorded under the other engine: enqueues are
        // only folded into the horizon while event scheduling is on, so
        // a generation-valid memo from before the switch may be stale.
        scanNoIssueBefore_ = 0;
    }

    /** Enqueue a request; returns false if the target queue is full. */
    bool enqueue(const Request &req, Tick now);

    void tick(Tick now);

    bool readQueueFull() const { return readQ_.q.size() >= kReadQCap; }
    bool writeQueueFull() const { return writeQ_.q.size() >= kWriteQCap; }
    std::size_t readQueueDepth() const { return readQ_.q.size(); }

    const MemControllerStats &stats() const { return stats_; }
    int channel() const { return channel_; }

    /** Telemetry export (scheduler-invariant counters only). */
    void exportStats(StatWriter &w) const { stats_.exportStats(w); }

    /** Earliest tick at which this controller has work to do. */
    Tick nextWorkAt() const { return nextWorkAt_; }

    /**
     * Apply a tracker mitigation action (public so the System can route
     * tREFW-boundary actions here as well).
     */
    void applyMitigation(const Mitigation &m, Tick now);

    /**
     * Test/debug hook: verifies that the cache-backed pick (scanPick)
     * equals a brute-force windowed linear reference scan recomputed
     * from raw bank state. O(window); returns false on any divergence.
     */
    bool auditQueues(Tick now);

  private:
    static constexpr std::size_t kReadQCap = 512;
    static constexpr std::size_t kWriteQCap = 512;
    static constexpr std::size_t kCounterQCap = 4096;
    /// FR-FCFS scan window: only the oldest 48 requests of a queue
    /// compete for issue (hardware schedulers window similarly).
    static constexpr std::size_t kScanWindow = 48;

    struct BankState
    {
        std::int32_t openRow = -1;
        Tick actReady = 0;     ///< Earliest next ACT (tRC / tRP).
        Tick colReady = 0;     ///< Earliest next column command.
        Tick preReady = 0;     ///< Earliest precharge (tRAS / tWR).
        Tick blockedUntil = 0; ///< Mitigation / refresh blocking.
    };

    struct RankState
    {
        Tick lastActAt = 0;
        std::int32_t lastActBankGroup = -1;
        Tick faw[4] = {0, 0, 0, 0}; ///< Ring of last four ACT times.
        int fawIdx = 0;
        Tick blockedUntil = 0;
        Tick nextRefreshAt = 0;
    };

    struct InFlight
    {
        Tick doneAt;
        Request req;
    };

    /** One request queue: a bounded ring in arrival order, except that
     *  a throttle re-queue goes back to the front (src/common/arena.hh,
     *  no steady-state allocation). */
    struct QueueState
    {
        explicit QueueState(std::size_t cap) : q(cap) {}

        RingDeque<Request> q;
    };

    /** Outcome of an FR-FCFS scan over one queue. */
    struct ScanPick
    {
        static constexpr std::size_t kNoPos = ~std::size_t(0);

        std::size_t pos = kNoPos; ///< Deque index; kNoPos: nothing ready.
        Tick wakeAt = kTickMax; ///< Earliest future start (no-pick case).

        bool found() const { return pos != kNoPos; }
    };

    BankState &bank(int rank, int bank);
    RankState &rank(int rank);

    int
    globalBank(const Request &req) const
    {
        return req.dram.rank * banksPerRank_ + req.dram.bank;
    }

    void serviceCompletions(Tick now);
    void serviceRefresh(Tick now);
    bool tryIssueFrom(QueueState &qs, Tick now, Tick &issueWake);
    /**
     * FR-FCFS selection: first ready row hit in queue order, else the
     * oldest ready request, over the queue's scan window, with each
     * entry's start served from the per-bank timing cache.
     */
    ScanPick scanPick(QueueState &qs, Tick now);
    /** Refresh hitStartRaw_/missStartRaw_ of bank @p b if stale. */
    void ensureTiming(int b);
    /** Earliest tick request could begin (cache-backed). */
    Tick earliestStart(const Request &req, Tick now);
    /**
     * Pure recomputation of the earliest start from raw bank state —
     * the uncached formula, kept as the reference for auditQueues().
     */
    Tick referenceEarliestStart(const Request &req, Tick now) const;
    bool auditQueue(QueueState &qs, Tick now);
    void issue(Request req, Tick now);
    void wake(Tick at)
    {
        if (at < nextWorkAt_)
            nextWorkAt_ = at;
    }
    void recomputeWake(Tick now);
    void blockBank(int rankId, int bankId, Tick from, Tick duration);

    const SysConfig cfg_;
    const int channel_;
    Tracker *tracker_;
    WakeHub *wakeHub_ = nullptr;
    GroundTruth *groundTruth_;
    EnergyModel *energy_;

    // Cached timing in ticks.
    const Tick tRCD_, tRP_, tCL_, tRC_, tRAS_, tRRDS_, tRRDL_, tWR_, tRFC_,
        tREFI_, tBL_, tFAW_;
    const int banksPerRank_;
    /// log2(banksPerRank_) and log2(banksPerGroup): both are powers of
    /// two (checked at construction), so ensureTiming shifts instead of
    /// dividing.
    const int rankShift_;
    const int groupShift_;

    std::vector<BankState> banks_;
    std::vector<RankState> ranks_;
    Tick dataBusFree_ = 0;
    Tick channelBlockedUntil_ = 0;
    bool writeMode_ = false;

    QueueState readQ_{kReadQCap};
    QueueState writeQ_{kWriteQCap};
    QueueState counterQ_{kCounterQCap};
    /// Issued requests by completion tick; serviceCompletions pops each
    /// due entry and hands it to its sink's memDone. The data bus
    /// serialises completions (each doneAt is the new dataBusFree_, at
    /// least the previous doneAt + tBL, and tBL >= 1), so pushes arrive
    /// strictly in due order and a FIFO does a heap's job. Only reads
    /// and sinked requests enter, so the LLC's MSHRs plus every core's
    /// bypass MSHRs bound the ring.
    RingDeque<InFlight> inflight_;

    MitigationVec scratch_;
    MemControllerStats stats_;
    Tick nextWorkAt_ = 0;
    /// Incremental min over ranks' nextRefreshAt, so neither the
    /// refresh service nor the wake recomputation rescans ranks on
    /// every visit.
    Tick refreshMin_ = kTickMax;

    // Per-bank earliest-start cache: at a fixed tick a bank contributes
    // at most two start values to FR-FCFS (row-hit via colReady, row-
    // miss via the ACT path), both pure functions of bank/rank/channel
    // timing state. Validity is stamped at channel / rank / bank
    // granularity so a row-hit issue (which touches only one bank's
    // column timing) does not invalidate the other banks: each level's
    // generation only grows, so the sum chanGen_ + rankGen_[r] +
    // bankGen_[b] is a collision-free stamp.
    std::vector<Tick> hitStartRaw_;
    std::vector<Tick> missStartRaw_;
    std::vector<std::uint64_t> bankTimingStamp_;
    std::vector<std::uint64_t> bankGen_;
    std::vector<std::uint64_t> rankGen_;
    std::uint64_t chanGen_ = 0;

    // Issue memo (see setEventScheduling). stateGen_ counts bank / rank /
    // bus / queue-order mutations; a recorded scan outcome is valid while
    // the generation is unchanged.
    bool eventScheduling_ = false;
    std::uint64_t stateGen_ = 0;
    std::uint64_t scanGen_ = ~std::uint64_t(0);
    Tick scanNoIssueBefore_ = 0;
};

} // namespace dapper

#endif // DAPPER_MEM_CONTROLLER_HH
