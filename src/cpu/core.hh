/**
 * @file
 * Trace-driven out-of-order core model (Table I: 4-wide, 128-entry ROB).
 *
 * The model follows the Ramulator out-of-order core abstraction: a
 * fixed-size instruction window filled at up to `width` instructions per
 * cycle and retired in order at up to `width` per cycle. Non-memory
 * instructions complete immediately; loads complete when the cache/memory
 * hierarchy answers; stores retire immediately (store-buffer assumption)
 * while still generating memory traffic.
 *
 * Implementation note: only memory instructions occupy ROB entries; each
 * entry carries the count of non-memory "bubble" instructions preceding
 * it, so compute-heavy phases retire in O(1) per cycle instead of
 * touching one slot per instruction.
 */

#ifndef DAPPER_CPU_CORE_HH
#define DAPPER_CPU_CORE_HH

#include <cstdint>
#include <vector>

#include "src/cache/llc.hh"
#include "src/common/arena.hh"
#include "src/common/config.hh"
#include "src/mem/request.hh"
#include "src/workload/trace_gen.hh"

namespace dapper {

class Core : public MemSink
{
  public:
    /**
     * @param mshrLimit outstanding DRAM-bypass requests allowed; attacker
     *        cores get a larger allocation (engineered access streams).
     */
    Core(const SysConfig &cfg, int id, TraceGen *gen, Llc *llc,
         std::vector<MemController *> controllers,
         const AddressMapper *mapper, int mshrLimit);

    void tick(Tick now);

    /**
     * Event-engine entry point: run tick(now), then, if the core is in a
     * stall-free all-bubble retire run, model the whole run in closed
     * form up to @p limit (inclusive) and advance the watermark past it
     * (see src/cpu/README.md for the batched-retire contract). @p limit
     * must not exceed the next stat-probe boundary or the last simulated
     * tick — state inside the batch is applied eagerly, so nothing may
     * observe the core at an interior tick. The per-instruction tick()
     * remains the executable spec; the reference engine uses it alone.
     */
    void tickEvent(Tick now, Tick limit);

    /**
     * Earliest tick at which tick(now) can change observable state
     * (scheduler contract, see src/sim/scheduler.hh). now+1 while the
     * core is making progress; the earliest scheduled LLC-hit completion
     * while stalled on one; kTickMax while only an external event
     * (memory completion, MSHR / queue space freeing) can unblock it.
     */
    Tick nextEventAt() const { return wakeAt_; }

    /** External wake: something this core may be blocked on changed. */
    void
    wake(Tick at)
    {
        if (at < wakeAt_)
            wakeAt_ = at;
    }

    /**
     * WakeHub delivery: wake only if the last tick stalled on a shared
     * structural resource (LLC MSHR, controller read queue). A core
     * stalled on its own full reorder window is unblocked exclusively by
     * its own completions and stays asleep.
     */
    void
    wakeIfResourceStalled(Tick at)
    {
        if (resourceStalled_)
            wake(at);
    }

    /** LLC hit: complete slot at absolute time @p when, which must not
     *  precede an earlier call's (checked: pending_ is a FIFO). */
    void completeAt(std::uint32_t slot, Tick when);
    /** LLC hit helper: complete after @p delay from the current tick. */
    void completeAfter(std::uint32_t slot, Tick delay)
    {
        completeAt(slot, now_ + delay);
    }
    /** Fill returned: complete slot immediately. */
    void completeNow(std::uint32_t slot);
    /** DRAM-bypass completion path. */
    void memDone(const Request &req, Tick now) override;

    std::uint64_t retired() const { return retired_; }
    std::uint64_t memReads() const { return memReads_; }
    int id() const { return id_; }

    /** Telemetry under the caller's prefix (System: "core.<id>.").
     *  System adds "ipc" itself — it owns the global clock. */
    void
    exportStats(StatWriter &w) const
    {
        w.u64("retired", retired_);
        w.u64("memReads", memReads_);
    }

  private:
    /** One in-flight memory instruction plus its preceding bubbles. */
    struct Slot
    {
        std::uint32_t bubblesBefore = 0;
        bool done = false;
        bool valid = false;
    };

    std::uint32_t pushSlot(std::uint32_t bubbles, bool done);
    /** Fold a stall-free bubble-retire run ending at or before @p limit
     *  into closed-form state updates; no-op when none applies. */
    void tryBatch(Tick now, Tick limit);

    const SysConfig cfg_;
    const int id_;
    TraceGen *gen_;
    Llc *llc_;
    std::vector<MemController *> controllers_;
    const AddressMapper *mapper_;
    const int mshrLimit_;
    const int width_;
    const int robSize_;

    std::vector<Slot> rob_; ///< Ring of memory instructions.
    int head_ = 0;
    int tail_ = 0;
    int count_ = 0;          ///< Valid ROB slots.
    int occupancy_ = 0;      ///< Instructions in the window (incl. bubbles).
    std::uint32_t headBubblesLeft_ = 0; ///< Unretired bubbles of the head.
    bool headBubblesPrimed_ = false;

    TraceRecord rec_{};
    bool haveRec_ = false;

    int outstanding_ = 0; ///< Bypass-path requests in flight.
    Tick now_ = 0;
    Tick wakeAt_ = 0; ///< Next-event watermark (0: run at first tick).
    /// Last tick already modelled by a closed-form batch; 0 = none
    /// (batches start at now >= 0 with length >= 1, so 0 is never a
    /// real batch end).
    Tick batchedUntil_ = 0;
    bool resourceStalled_ = false; ///< Fetch hit MSHR/queue exhaustion.
    std::uint64_t retired_ = 0;
    std::uint64_t memReads_ = 0;

    /// A scheduled LLC-hit completion (a plain struct: RingDeque needs
    /// a trivially copyable element, which std::pair is not).
    struct Pending
    {
        Tick at;
        std::uint32_t slot;
    };
    /// Scheduled completions in due order. Hits complete at
    /// now_ + llcHitLatency and now_ never decreases, so pushes arrive
    /// sorted and a FIFO does a heap's job. Each entry is an uncompleted
    /// ROB slot, so robSize_ entries always fit.
    RingDeque<Pending> pending_;
};

} // namespace dapper

#endif // DAPPER_CPU_CORE_HH
