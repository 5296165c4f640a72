#include "src/mem/controller.hh"

#include <algorithm>
#include <bit>

#include "src/common/check.hh"

namespace dapper {

Tick
LatencyReservoir::percentile(double p) const
{
    if (samples.empty())
        return 0;
    std::vector<Tick> sorted(samples);
    std::size_t idx = static_cast<std::size_t>(
        p * static_cast<double>(sorted.size()));
    if (idx >= sorted.size())
        idx = sorted.size() - 1;
    std::nth_element(sorted.begin(),
                     sorted.begin() + static_cast<std::ptrdiff_t>(idx),
                     sorted.end());
    return sorted[idx];
}

// ---------------------------------------------------------------------
// MemController.
// ---------------------------------------------------------------------

MemController::MemController(const SysConfig &cfg, int channel,
                             Tracker *tracker, GroundTruth *groundTruth,
                             EnergyModel *energy)
    : cfg_(cfg),
      channel_(channel),
      tracker_(tracker),
      groundTruth_(groundTruth),
      energy_(energy),
      tRCD_(cfg.tRCD()),
      tRP_(cfg.tRP()),
      tCL_(cfg.tCL()),
      tRC_(cfg.tRC()),
      tRAS_(cfg.tRAS()),
      tRRDS_(cfg.tRRDS()),
      tRRDL_(cfg.tRRDL()),
      tWR_(cfg.tWR()),
      tRFC_(cfg.tRFC()),
      tREFI_(cfg.tREFI()),
      tBL_(cfg.tBL()),
      tFAW_(cfg.tFAW()),
      banksPerRank_(cfg.banksPerRank()),
      rankShift_(std::countr_zero(
          static_cast<unsigned>(cfg.banksPerRank()))),
      groupShift_(std::countr_zero(
          static_cast<unsigned>(cfg.banksPerGroup))),
      inflight_(static_cast<std::size_t>(cfg.llcMshrs() +
                                          cfg.numCores * cfg.coreMshrs))
{
    // ensureTiming's shifts need both factors of banksPerRank to be
    // powers of two, which a power-of-two product guarantees.
    DAPPER_CHECK(std::has_single_bit(
                     static_cast<unsigned>(banksPerRank_)),
                 "MemController: banks per rank must be a power of two");
    const int numBanks = cfg.ranksPerChannel * banksPerRank_;
    banks_.resize(static_cast<std::size_t>(numBanks));
    ranks_.resize(static_cast<std::size_t>(cfg.ranksPerChannel));
    // Stagger the first refresh across ranks.
    for (int r = 0; r < cfg.ranksPerChannel; ++r)
        ranks_[static_cast<std::size_t>(r)].nextRefreshAt =
            tREFI_ + static_cast<Tick>(r) * (tREFI_ / 2 + 1);
    refreshMin_ = kTickMax;
    for (const RankState &rk : ranks_)
        refreshMin_ = std::min(refreshMin_, rk.nextRefreshAt);

    hitStartRaw_.assign(static_cast<std::size_t>(numBanks), 0);
    missStartRaw_.assign(static_cast<std::size_t>(numBanks), 0);
    bankTimingStamp_.assign(static_cast<std::size_t>(numBanks),
                            ~std::uint64_t(0));
    bankGen_.assign(static_cast<std::size_t>(numBanks), 0);
    rankGen_.assign(static_cast<std::size_t>(cfg.ranksPerChannel), 0);
}

MemController::BankState &
MemController::bank(int rankId, int bankId)
{
    return banks_[static_cast<std::size_t>(rankId) * banksPerRank_ +
                  bankId];
}

MemController::RankState &
MemController::rank(int rankId)
{
    return ranks_[static_cast<std::size_t>(rankId)];
}

bool
MemController::enqueue(const Request &req, Tick now)
{
    // Mis-routed requests would hammer the wrong channel's banks and
    // corrupt every downstream tracker decision.
    DAPPER_CHECK(req.dram.channel == channel_,
                 "enqueue: request routed to wrong channel");
    QueueState *qs;
    switch (req.type) {
      case ReqType::Read:
        if (readQ_.q.size() >= kReadQCap)
            return false;
        qs = &readQ_;
        break;
      case ReqType::Write:
        if (writeQ_.q.size() >= kWriteQCap)
            return false;
        qs = &writeQ_;
        break;
      default:
        if (counterQ_.q.size() >= kCounterQCap)
            return false;
        qs = &counterQ_;
        break;
    }
    Request queued = req;
    queued.enqueuedAt = now;
    qs->q.push_back(queued);

    // Long-distance GroundTruth prefetch: most demand requests activate
    // when issued (row-buffer hit rates are low under attack traffic),
    // and the queue wait gives the neighbor-cell lines time to arrive
    // from DRAM; the short-distance prefetch at the top of issue()
    // covers whatever slipped back out.
    if (groundTruth_ != nullptr && req.type != ReqType::CounterRead &&
        req.type != ReqType::CounterWrite)
        groundTruth_->prefetchActivation(channel_, queued.dram.rank,
                                         queued.dram.bank, queued.dram.row);

    // A new request does not invalidate the issue memo (bank/bus state is
    // untouched); fold its own earliest start into the memoized horizon.
    if (eventScheduling_ && scanGen_ == stateGen_) {
        const Tick startAt = earliestStart(queued, now);
        if (startAt < scanNoIssueBefore_)
            scanNoIssueBefore_ = startAt;
    }
    wake(now);
    return true;
}

void
MemController::serviceCompletions(Tick now)
{
    while (!inflight_.empty() && inflight_.front().doneAt <= now) {
        const InFlight fin = inflight_.front();
        inflight_.pop_front();
        if (fin.req.type == ReqType::Read) {
            const std::uint64_t lat =
                static_cast<std::uint64_t>(fin.doneAt -
                                           fin.req.enqueuedAt);
            DAPPER_CHECK(stats_.readLatencySum <= ~std::uint64_t(0) - lat,
                         "readLatencySum overflow");
            stats_.readLatencySum += lat;
            ++stats_.readLatencyCount;
            stats_.readLatency.add(lat);
        }
        if (fin.req.sink != nullptr)
            fin.req.sink->memDone(fin.req, now);
    }
}

void
MemController::serviceRefresh(Tick now)
{
    if (now < refreshMin_)
        return;
    for (int r = 0; r < cfg_.ranksPerChannel; ++r) {
        RankState &rk = rank(r);
        if (now < rk.nextRefreshAt)
            continue;
        // Issue REF: block every bank in the rank for tRFC and close rows.
        const Tick start = std::max(now, rk.blockedUntil);
        for (int b = 0; b < banksPerRank_; ++b) {
            BankState &bk = bank(r, b);
            bk.blockedUntil = std::max(bk.blockedUntil, start + tRFC_);
            bk.openRow = -1;
            bk.actReady = std::max(bk.actReady, start + tRFC_);
        }
        rk.nextRefreshAt += tREFI_;
        ++stateGen_; // Rows closed, banks blocked.
        ++rankGen_[static_cast<std::size_t>(r)];
        ++stats_.refreshes;
        if (energy_ != nullptr)
            energy_->addRef();
        if (groundTruth_ != nullptr)
            groundTruth_->onAutoRefresh(channel_, r);
        wake(rk.nextRefreshAt);
    }
    refreshMin_ = kTickMax;
    for (const RankState &rk : ranks_)
        refreshMin_ = std::min(refreshMin_, rk.nextRefreshAt);
}

void
MemController::blockBank(int rankId, int bankId, Tick from, Tick duration)
{
    BankState &bk = bank(rankId, bankId);
    const Tick start = std::max(from, bk.blockedUntil);
    bk.blockedUntil = start + duration;
    bk.openRow = -1;
    bk.actReady = std::max(bk.actReady, bk.blockedUntil);
    ++bankGen_[static_cast<std::size_t>(rankId) * banksPerRank_ + bankId];
    stats_.busyBlockedTicks += duration;
}

void
MemController::applyMitigation(const Mitigation &m, Tick now)
{
    ++stateGen_; // Bank / rank / channel blocking windows change.
    switch (m.kind) {
      case Mitigation::Kind::VrrRow:
        blockBank(m.rank, m.bank, now, cfg_.vrrTicks());
        ++stats_.vrrCommands;
        break;
      case Mitigation::Kind::DrfmSbRow: {
        // Same bank number across all bank groups is blocked.
        const int bankInGroup = m.bank % cfg_.banksPerGroup;
        for (int g = 0; g < cfg_.bankGroups; ++g)
            blockBank(m.rank, g * cfg_.banksPerGroup + bankInGroup, now,
                      cfg_.drfmSbTicks());
        ++stats_.vrrCommands;
        break;
      }
      case Mitigation::Kind::RfmSb: {
        const int bankInGroup = m.bank % cfg_.banksPerGroup;
        for (int g = 0; g < cfg_.bankGroups; ++g)
            blockBank(m.rank, g * cfg_.banksPerGroup + bankInGroup, now,
                      cfg_.rfmSbTicks());
        ++stats_.rfmCommands;
        break;
      }
      case Mitigation::Kind::AboRfm: {
        // PRAC Alert Back-Off: all banks in the channel stall.
        for (int r = 0; r < cfg_.ranksPerChannel; ++r)
            for (int b = 0; b < banksPerRank_; ++b)
                blockBank(r, b, now, cfg_.rfmSbTicks() * 2);
        ++stats_.rfmCommands;
        break;
      }
      case Mitigation::Kind::BulkRank: {
        RankState &rk = rank(m.rank);
        const Tick start = std::max(now, rk.blockedUntil);
        rk.blockedUntil = start + cfg_.bulkRefreshRank();
        ++rankGen_[static_cast<std::size_t>(m.rank)];
        for (int b = 0; b < banksPerRank_; ++b)
            blockBank(m.rank, b, now, rk.blockedUntil - now);
        ++stats_.bulkResets;
        if (energy_ != nullptr)
            energy_->addBulkRefresh(cfg_.rowsPerRank());
        break;
      }
      case Mitigation::Kind::BulkChannel: {
        const Tick start = std::max(now, channelBlockedUntil_);
        channelBlockedUntil_ = start + cfg_.bulkRefreshChannel();
        ++chanGen_;
        for (int r = 0; r < cfg_.ranksPerChannel; ++r) {
            rank(r).blockedUntil =
                std::max(rank(r).blockedUntil, channelBlockedUntil_);
            ++rankGen_[static_cast<std::size_t>(r)];
            for (int b = 0; b < banksPerRank_; ++b)
                blockBank(r, b, now, channelBlockedUntil_ - now);
        }
        ++stats_.bulkResets;
        if (energy_ != nullptr)
            energy_->addBulkRefresh(cfg_.rowsPerRank() *
                                    cfg_.ranksPerChannel);
        break;
      }
      case Mitigation::Kind::CounterRead:
      case Mitigation::Kind::CounterWrite: {
        Request req;
        req.dram.channel = channel_;
        req.dram.rank = m.rank;
        req.dram.bank = m.bank;
        req.dram.row = m.row;
        req.dram.col = 0;
        req.type = (m.kind == Mitigation::Kind::CounterRead)
                       ? ReqType::CounterRead
                       : ReqType::CounterWrite;
        enqueue(req, now);
        break;
      }
    }
    // GroundTruth owns which rows each kind refreshes; energy books the
    // same victim rows, edge rows included (bulk rows are booked above).
    if (groundTruth_ != nullptr)
        groundTruth_->onMitigation(channel_, m);
    if (energy_ != nullptr)
        energy_->addVictimRefresh(2 * victimRadius(m, cfg_));
    wake(now);
}

void
MemController::ensureTiming(int b)
{
    const std::size_t bi = static_cast<std::size_t>(b);
    const std::size_t ri = bi >> rankShift_;
    const std::uint64_t stamp = chanGen_ + rankGen_[ri] + bankGen_[bi];
    if (bankTimingStamp_[bi] == stamp)
        return;
    bankTimingStamp_[bi] = stamp;

    const BankState &bk = banks_[bi];
    const RankState &rk = ranks_[ri];
    Tick base = std::max(channelBlockedUntil_, rk.blockedUntil);
    base = std::max(base, bk.blockedUntil);

    hitStartRaw_[bi] = std::max(base, bk.colReady);

    // Need (PRE +) ACT: respect tRC/tRP via actReady, tRAS/tWR via
    // preReady + tRP when a row is open, and rank-level pacing.
    Tick actAt = std::max(base, bk.actReady);
    if (bk.openRow >= 0)
        actAt = std::max(actAt, bk.preReady + tRP_);
    const int bankGroup = (b & (banksPerRank_ - 1)) >> groupShift_;
    const Tick rrd = (rk.lastActBankGroup == bankGroup) ? tRRDL_ : tRRDS_;
    if (rk.lastActAt > 0)
        actAt = std::max(actAt, rk.lastActAt + rrd);
    if (rk.faw[rk.fawIdx] > 0)
        actAt = std::max(actAt, rk.faw[rk.fawIdx] + tFAW_);
    missStartRaw_[bi] = actAt;
}

Tick
MemController::earliestStart(const Request &req, Tick now)
{
    const int b = globalBank(req);
    ensureTiming(b);
    const bool rowHit =
        banks_[static_cast<std::size_t>(b)].openRow == req.dram.row;
    return std::max(now, rowHit ? hitStartRaw_[static_cast<std::size_t>(b)]
                                : missStartRaw_[static_cast<std::size_t>(b)]);
}

Tick
MemController::referenceEarliestStart(const Request &req, Tick now) const
{
    const auto &bk = banks_[static_cast<std::size_t>(req.dram.rank) *
                                banksPerRank_ + req.dram.bank];
    const auto &rk = ranks_[static_cast<std::size_t>(req.dram.rank)];

    Tick start = std::max(now, channelBlockedUntil_);
    start = std::max(start, rk.blockedUntil);
    start = std::max(start, bk.blockedUntil);

    const bool rowHit = bk.openRow == req.dram.row;
    if (rowHit) {
        start = std::max(start, bk.colReady);
    } else {
        Tick actAt = std::max(start, bk.actReady);
        if (bk.openRow >= 0)
            actAt = std::max(actAt, bk.preReady + tRP_);
        const int bankGroup = req.dram.bank / cfg_.banksPerGroup;
        const Tick rrd =
            (rk.lastActBankGroup == bankGroup) ? tRRDL_ : tRRDS_;
        if (rk.lastActAt > 0)
            actAt = std::max(actAt, rk.lastActAt + rrd);
        if (rk.faw[rk.fawIdx] > 0)
            actAt = std::max(actAt, rk.faw[rk.fawIdx] + tFAW_);
        start = actAt;
    }
    return start;
}

void
MemController::issue(Request req, Tick now)
{
    ++stateGen_; // Bank / rank / data-bus timing advances (or a throttle
                 // re-queue mutates actReady and the queue order).
    // Every path below mutates this bank's timing (column, throttle
    // actReady, or ACT); only the ACT path touches rank pacing state —
    // its generation is bumped where that happens.
    ++bankGen_[static_cast<std::size_t>(globalBank(req))];
    BankState &bk = bank(req.dram.rank, req.dram.bank);
    RankState &rk = rank(req.dram.rank);
    const bool rowHit = bk.openRow == req.dram.row;
    if (!rowHit && groundTruth_ != nullptr && req.type != ReqType::CounterRead
        && req.type != ReqType::CounterWrite)
        groundTruth_->prefetchActivation(channel_, req.dram.rank,
                                         req.dram.bank, req.dram.row);
    // Pure recomputation, NOT the cache-backed earliestStart: the
    // generation already moved and this function mutates timing state
    // below, so stamping the per-bank cache here would leave it stale
    // under the current generation.
    const Tick start = referenceEarliestStart(req, now);

    const bool isCounterOp = req.type == ReqType::CounterRead ||
                             req.type == ReqType::CounterWrite;
    if (!rowHit) {
        // Activation path. Ask the tracker about throttling first.
        // Counter traffic targets the reserved (guarded) counter region
        // and is neither tracked nor throttled — mirroring Hydra/START,
        // whose counter stores sit outside the protected address space.
        ActEvent evt{channel_, req.dram.rank, req.dram.bank, req.dram.row,
                     start, req.coreId};
        if (tracker_ != nullptr && !isCounterOp) {
            const Tick allowedAt = tracker_->throttleUntil(evt);
            if (allowedAt > start) {
                // Re-queue: model the throttle as bank unavailability.
                bk.actReady = std::max(bk.actReady, allowedAt);
                ++stats_.throttledActs;
                wake(allowedAt);
                // Put the request back at the front of its queue (it may
                // have been picked from the middle of the window).
                QueueState &qs = (req.type == ReqType::Write) ? writeQ_
                                 : (req.type == ReqType::Read)
                                     ? readQ_
                                     : counterQ_;
                qs.q.push_front(req);
                return;
            }
        }

        bk.openRow = req.dram.row;
        bk.colReady = start + tRCD_;
        Tick actCycle = tRC_;
        if (tracker_ != nullptr)
            actCycle += tracker_->actExtraTicks();
        bk.actReady = start + actCycle;
        bk.preReady = start + tRAS_;
        rk.lastActAt = start;
        rk.lastActBankGroup = req.dram.bank / cfg_.banksPerGroup;
        rk.faw[rk.fawIdx] = start;
        rk.fawIdx = (rk.fawIdx + 1) % 4;
        ++rankGen_[static_cast<std::size_t>(req.dram.rank)];

        ++stats_.activations;
        ++stats_.rowMisses;
        if (energy_ != nullptr)
            energy_->addAct();
        if (!isCounterOp) {
            if (groundTruth_ != nullptr)
                groundTruth_->onActivation(channel_, req.dram.rank,
                                           req.dram.bank, req.dram.row);
            if (tracker_ != nullptr) {
                scratch_.clear();
                tracker_->onActivation(evt, scratch_);
                for (const Mitigation &m : scratch_)
                    applyMitigation(m, start);
            }
        }
    } else {
        ++stats_.rowHits;
    }

    // Column access and data transfer.
    const bool isWrite =
        req.type == ReqType::Write || req.type == ReqType::CounterWrite;
    Tick colAt = std::max(start, bk.colReady);
    Tick dataAt = colAt + tCL_;
    if (dataAt < dataBusFree_) {
        colAt += dataBusFree_ - dataAt;
        dataAt = dataBusFree_;
    }
    dataBusFree_ = dataAt + tBL_;
    bk.colReady = std::max(bk.colReady, colAt + tBL_);
    const Tick doneAt = dataAt + tBL_;
    if (isWrite)
        bk.preReady = std::max(bk.preReady, doneAt + tWR_);

    switch (req.type) {
      case ReqType::Read:
        ++stats_.reads;
        if (energy_ != nullptr)
            energy_->addRead(false);
        break;
      case ReqType::Write:
        ++stats_.writes;
        if (energy_ != nullptr)
            energy_->addWrite(false);
        break;
      case ReqType::CounterRead:
        ++stats_.counterReads;
        if (energy_ != nullptr)
            energy_->addRead(true);
        break;
      case ReqType::CounterWrite:
        ++stats_.counterWrites;
        if (energy_ != nullptr)
            energy_->addWrite(true);
        break;
    }

    if (req.sink != nullptr || req.type == ReqType::Read) {
        DAPPER_CHECK(inflight_.empty() || inflight_.back().doneAt < doneAt,
                     "issue: completions must arrive in due order");
        inflight_.push_back(InFlight{doneAt, req});
        wake(doneAt);
    }
    wake(now + 1);
}

MemController::ScanPick
MemController::scanPick(QueueState &qs, Tick now)
{
    // Windowed walk in queue order; each entry's start comes from its
    // bank's timing cache (max(now, raw) > now iff raw > now).
    const std::size_t scanLimit = std::min(qs.q.size(), kScanWindow);
    ScanPick pick;
    Tick wakeMin = kTickMax;
    for (std::size_t i = 0; i < scanLimit; ++i) {
        const Request &req = qs.q[i];
        const int b = globalBank(req);
        const std::size_t bi = static_cast<std::size_t>(b);
        ensureTiming(b);
        const bool rowHit = banks_[bi].openRow == req.dram.row;
        const Tick raw = rowHit ? hitStartRaw_[bi] : missStartRaw_[bi];
        if (raw <= now) {
            if (rowHit) {
                pick.pos = i;
                return pick;
            }
            if (!pick.found())
                pick.pos = i;
        } else {
            wakeMin = std::min(wakeMin, raw);
        }
    }
    if (!pick.found())
        pick.wakeAt = wakeMin;
    return pick;
}

bool
MemController::tryIssueFrom(QueueState &qs, Tick now, Tick &issueWake)
{
    if (qs.q.empty())
        return false;

    const ScanPick pick = scanPick(qs, now);
    if (!pick.found()) {
        if (pick.wakeAt != kTickMax)
            wake(pick.wakeAt);
        if (pick.wakeAt < issueWake)
            issueWake = pick.wakeAt;
        return false;
    }

    // The pick must index the deque it was scanned from; issuing past
    // its end would corrupt queue accounting.
    DAPPER_CHECK(pick.pos < qs.q.size(),
                 "issue: picked position outside queue");
    Request req = qs.q[pick.pos];
    const bool readWasFull = &qs == &readQ_ && qs.q.size() >= kReadQCap;
    qs.q.erase(pick.pos);
    // Cores poll readQueueFull() before enqueueing bypass reads; tell
    // them when space appears. (issue() may immediately push the request
    // back on a throttle, making this wake spurious — that is safe.)
    if (readWasFull && wakeHub_ != nullptr)
        wakeHub_->requestWakeAll(now + 1);
    issue(req, now);
    return true;
}

void
MemController::recomputeWake(Tick now)
{
    // Merge the wake watermarks accumulated during this tick (enqueue,
    // issue completion times, per-bank earliest-start estimates) with
    // the structural ones (completions, refresh deadlines). Both are
    // O(1): the refresh minimum is maintained incrementally.
    Tick next = nextWorkAt_;
    if (!inflight_.empty())
        next = std::min(next, inflight_.front().doneAt);
    next = std::min(next, refreshMin_);
    nextWorkAt_ = std::max(next, now + 1);
}

void
MemController::tick(Tick now)
{
    if (now < nextWorkAt_)
        return;
    nextWorkAt_ = kTickMax;

    serviceCompletions(now);
    serviceRefresh(now);

    if (now < channelBlockedUntil_) {
        wake(channelBlockedUntil_);
        recomputeWake(now);
        return;
    }

    // Write drain hysteresis. Evaluated on every visit — even ones the
    // issue memo will skip below — because writeMode_ is a latch: the
    // reference engine updates it at every active tick, and queue sizes
    // only change on visits both engines share, so keeping it ahead of
    // the fast path keeps the latch state engine-invariant.
    if (!writeMode_ && (writeQ_.q.size() >= kWriteQCap * 3 / 4 ||
                        (readQ_.q.empty() && writeQ_.q.size() >= 64)))
        writeMode_ = true;
    if (writeMode_ && writeQ_.q.size() <= kWriteQCap / 8)
        writeMode_ = false;

    // Issue memo fast path: a previous scan concluded that nothing can
    // start before scanNoIssueBefore_ and no timing state has mutated
    // since (enqueues folded themselves into the horizon), so the
    // FR-FCFS scan is skipped outright.
    if (eventScheduling_ && scanGen_ == stateGen_ &&
        now < scanNoIssueBefore_) {
        wake(scanNoIssueBefore_);
        recomputeWake(now);
        return;
    }

    // Priority: injected counter traffic, then demand.
    Tick issueWake = kTickMax;
    bool issued = tryIssueFrom(counterQ_, now, issueWake);
    if (!issued) {
        if (writeMode_)
            issued = tryIssueFrom(writeQ_, now, issueWake);
        else
            issued = tryIssueFrom(readQ_, now, issueWake);
        // Opportunistic writes when the read path has nothing ready.
        if (!issued && !writeMode_ && !writeQ_.q.empty())
            issued = tryIssueFrom(writeQ_, now, issueWake);
    }
    if (issued) {
        wake(now + 1);
    } else {
        // Record the concluded scan; exact until stateGen_ moves.
        scanGen_ = stateGen_;
        scanNoIssueBefore_ = issueWake;
    }

    recomputeWake(now);
}

// ---------------------------------------------------------------------
// Test/debug audit: cache-backed pick vs brute-force reference.
// ---------------------------------------------------------------------

bool
MemController::auditQueue(QueueState &qs, Tick now)
{
    // Reference windowed linear scan on raw state (no timing cache) must
    // agree with scanPick on the picked position, or on the wake horizon
    // when nothing is ready.
    std::size_t pick = ScanPick::kNoPos;
    std::size_t oldestReady = ScanPick::kNoPos;
    Tick bestWake = kTickMax;
    const std::size_t scanLimit = std::min(qs.q.size(), kScanWindow);
    for (std::size_t i = 0; i < scanLimit; ++i) {
        const Request &req = qs.q[i];
        const auto &bk =
            banks_[static_cast<std::size_t>(globalBank(req))];
        const Tick start = referenceEarliestStart(req, now);
        if (start <= now) {
            if (bk.openRow == req.dram.row) {
                pick = i;
                break;
            }
            if (oldestReady == ScanPick::kNoPos)
                oldestReady = i;
        } else {
            bestWake = std::min(bestWake, start);
        }
    }
    if (pick == ScanPick::kNoPos)
        pick = oldestReady;

    const ScanPick sp = scanPick(qs, now);
    if (pick == ScanPick::kNoPos)
        return !sp.found() && sp.wakeAt == bestWake;
    return sp.pos == pick;
}

bool
MemController::auditQueues(Tick now)
{
    return auditQueue(counterQ_, now) && auditQueue(readQ_, now) &&
           auditQueue(writeQ_, now);
}

} // namespace dapper
