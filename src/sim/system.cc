#include "src/sim/system.hh"

#include <string>

#include "src/common/check.hh"

namespace dapper {

System::System(const SysConfig &cfg, const TrackerInfo &tracker,
               std::vector<std::unique_ptr<TraceGen>> gens,
               [[maybe_unused]] int attackerCore)
    : cfg_(cfg), mapper_(cfg_), gens_(std::move(gens))
{
    cfg_.validate();
    // A generator/core count mismatch would leave cores reading a null
    // TraceGen; catch it at construction in every build type.
    DAPPER_CHECK(static_cast<int>(gens_.size()) == cfg_.numCores,
                 "System: generator count != numCores");

    // Variant trackers adjust command flavour / blast radius; this must
    // happen before any component copies the config.
    tracker.adjustConfig(cfg_);

    groundTruth_ = std::make_unique<GroundTruth>(cfg_);

    std::vector<MemController *> mcPtrs;
    controllers_.reserve(static_cast<std::size_t>(cfg_.channels));
    for (int c = 0; c < cfg_.channels; ++c) {
        controllers_.push_back(std::make_unique<MemController>(
            cfg_, c, nullptr, groundTruth_.get(), &energy_));
        mcPtrs.push_back(controllers_.back().get());
    }

    llc_ = std::make_unique<Llc>(cfg_, mapper_, mcPtrs);
    llc_->setWakeHub(&wakeHub_);
    for (auto &mc : controllers_)
        mc->setWakeHub(&wakeHub_);
    if (tracker.reservesLlc)
        llc_->reserveWays(cfg_.llcWays / 2, 0);

    tracker_ = tracker.make(cfg_, llc_.get());
    for (auto &mc : controllers_)
        mc->setTracker(tracker_.get());

    cores_.reserve(static_cast<std::size_t>(cfg_.numCores));
    for (int i = 0; i < cfg_.numCores; ++i)
        cores_.push_back(std::make_unique<Core>(cfg_, i, gens_[i].get(),
                                                llc_.get(), mcPtrs,
                                                &mapper_, cfg_.coreMshrs));

    nextWindowAt_ = cfg_.tREFW();
    periodicStep_ = std::max<Tick>(1, cfg_.tREFI() / 4);
    nextPeriodicAt_ = periodicStep_;
    trefiStep_ = std::max<Tick>(1, cfg_.tREFI());
    nextSeriesAt_ = trefiStep_;
}

void
System::applySystemMitigations(const MitigationVec &actions, Tick now)
{
    for (const Mitigation &m : actions)
        controllers_[static_cast<std::size_t>(m.channel)]->applyMitigation(
            m, now);
}

void
System::serviceDeadlines(Tick t)
{
    Tracker *tracker = tracker_.get();
    if (t >= nextSeriesAt_) {
        // Probe sample first: a tREFI boundary coinciding with the
        // periodic or window deadline below sees the pre-hook state.
        // Probes are read-only, so firing them never changes results.
        nextSeriesAt_ += trefiStep_;
        for (Probe *probe : probes_)
            probe->onTrefi(*this, t);
    }
    if (t >= nextPeriodicAt_) {
        nextPeriodicAt_ += periodicStep_;
        if (tracker != nullptr) {
            scratch_.clear();
            tracker->onPeriodic(t, scratch_);
            applySystemMitigations(scratch_, t);
        }
    }
    if (t >= nextWindowAt_) {
        nextWindowAt_ += cfg_.tREFW();
        groundTruth_->onWindowBoundary();
        if (tracker != nullptr) {
            scratch_.clear();
            tracker->onRefreshWindow(t, scratch_);
            applySystemMitigations(scratch_, t);
        }
    }
}

void
System::run(Tick horizon)
{
    // Event scheduling: controllers may memoize their issue-path scans
    // behind the stateGen_/watermark contract (see controller.hh); the
    // per-tick oracle keeps the pre-refactor per-visit schedule.
    for (auto &mc : controllers_)
        mc->setEventScheduling(true);

    while (now_ < horizon) {
        const Tick t = now_;
        // Same intra-tick order as the reference loop: cores, then
        // controllers, then the periodic / window deadlines — but only
        // components whose watermark is due get called. Watermark
        // minima are folded into the same pass.
        // Cores may fold a stall-free retire run into one visit, but a
        // batch must never cross the next stat-probe boundary (probes
        // read end-of-their-tick core state) or the last simulated tick.
        const Tick coreLimit = std::min(nextSeriesAt_, horizon - 1);
        for (auto &core : cores_)
            if (core->nextEventAt() <= t)
                core->tickEvent(t, coreLimit);
        for (auto &mc : controllers_)
            if (mc->nextWorkAt() <= t)
                mc->tick(t);
        if (t >= nextPeriodicAt_ || t >= nextWindowAt_ ||
            t >= nextSeriesAt_)
            serviceDeadlines(t);

        // Controller watermarks are read only after every controller
        // (and the deadlines) ran: a later channel's completion can
        // enqueue an LLC writeback into an earlier one, re-arming it at
        // t, and mitigations can do the same.
        Tick mcMin = kTickMax;
        for (auto &mc : controllers_)
            mcMin = std::min(mcMin, mc->nextWorkAt());

        // Structural-resource broadcasts (MSHR / read-queue space freed
        // during the controller ticks above) wake the cores that stalled
        // on such a resource; other stalled cores cannot use it. Core
        // watermarks may have dropped during the controller phase
        // (memDone, fill waiters, broadcasts), so they are folded last —
        // in the same pass, after each core has seen the broadcast
        // (wakes are per-core state, so wake-then-fold per core equals
        // wake-all-then-fold-all).
        const Tick broadcast = wakeHub_.take();
        Tick next = std::min(mcMin, std::min(nextPeriodicAt_, nextWindowAt_));
        next = std::min(next, nextSeriesAt_);
        for (auto &core : cores_) {
            if (broadcast != kTickMax)
                core->wakeIfResourceStalled(broadcast);
            next = std::min(next, core->nextEventAt());
        }
        now_ = std::max(t + 1, std::min(next, horizon));
    }
}

void
System::exportStats(StatWriter &w) const
{
    {
        StatWriter s = w.scope("sys");
        s.u64("ticks", static_cast<std::uint64_t>(now_));
        s.u64("numCores", static_cast<std::uint64_t>(cfg_.numCores));
        s.u64("channels", static_cast<std::uint64_t>(cfg_.channels));
    }
    for (int i = 0; i < cfg_.numCores; ++i) {
        StatWriter s = w.scope("core." + std::to_string(i));
        s.f64("ipc", ipc(i));
        cores_[static_cast<std::size_t>(i)]->exportStats(s);
    }
    {
        StatWriter s = w.scope("llc");
        llc_->exportStats(s);
    }
    for (int c = 0; c < cfg_.channels; ++c) {
        StatWriter s = w.scope("mem." + std::to_string(c));
        controllers_[static_cast<std::size_t>(c)]->exportStats(s);
    }
    if (tracker_ != nullptr) {
        StatWriter s = w.scope("tracker");
        tracker_->exportStats(s);
    }
    {
        StatWriter s = w.scope("energy");
        energy_.exportStats(s);
    }
    {
        StatWriter s = w.scope("gt");
        groundTruth_->exportStats(s);
    }
}

} // namespace dapper
