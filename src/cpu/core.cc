#include "src/cpu/core.hh"

#include <cassert>

#include "src/common/check.hh"
#include "src/mem/controller.hh"

namespace dapper {

Core::Core(const SysConfig &cfg, int id, TraceGen *gen, Llc *llc,
           std::vector<MemController *> controllers,
           const AddressMapper *mapper, int mshrLimit)
    : cfg_(cfg),
      id_(id),
      gen_(gen),
      llc_(llc),
      controllers_(std::move(controllers)),
      mapper_(mapper),
      mshrLimit_(mshrLimit),
      width_(cfg.coreWidth),
      robSize_(cfg.robEntries),
      pending_(static_cast<std::size_t>(cfg.robEntries))
{
    rob_.assign(static_cast<std::size_t>(robSize_), Slot{});
}

std::uint32_t
Core::pushSlot(std::uint32_t bubbles, bool done)
{
    // ROB bound: overflowing the ring silently overwrites live slots and
    // corrupts retirement accounting, so this must hold in Release too.
    DAPPER_CHECK(count_ < robSize_, "ROB overflow in pushSlot");
    const std::uint32_t slot = static_cast<std::uint32_t>(tail_);
    rob_[slot].bubblesBefore = bubbles;
    rob_[slot].done = done;
    rob_[slot].valid = true;
    if (++tail_ == robSize_)
        tail_ = 0;
    ++count_;
    occupancy_ += static_cast<int>(bubbles) + 1;
    return slot;
}

void
Core::completeAt(std::uint32_t slot, Tick when)
{
    // pending_ pops from the front: an out-of-order push would complete
    // a later slot before an earlier one is due.
    DAPPER_CHECK(pending_.empty() || pending_.back().at <= when,
                 "completeAt: completions must arrive in due order");
    pending_.push_back({when, slot});
}

void
Core::completeNow(std::uint32_t slot)
{
    rob_[slot].done = true;
}

void
Core::memDone(const Request &req, Tick now)
{
    rob_[req.tag].done = true;
    --outstanding_;
    // The head may now retire and an MSHR-limit stall is over; both are
    // observable no earlier than the next tick (controllers run after
    // cores within a tick).
    wake(now + 1);
}

DAPPER_LINT_ALLOW(engine-parity,
                  "event-engine-only by design: tickEvent exists so "
                  "System::run can batch all-bubble retire runs; every "
                  "architectural effect goes through the same tick() the "
                  "reference engine drives, wakeAt_/batchedUntil_ are "
                  "scheduling bookkeeping, and scheduler_equivalence_test "
                  "pins both engines bit-identical");
void
Core::tickEvent(Tick now, Tick limit)
{
    if (batchedUntil_ > 0 && now <= batchedUntil_) {
        // Mid-batch wake (memDone or an LLC fill): completions only set
        // ROB done flags and free MSHR slots, neither of which an
        // all-bubble retire run can observe — the head's bubbles outlast
        // the batch by construction and the occupancy check blocks fetch
        // before any resource check is reached. Nothing scheduled
        // (pending_) can fall inside the batch either, so just go back
        // to sleep until the last modelled tick has passed.
        DAPPER_LINT_ALLOW(raw-assert,
                          "per-event-visit scheduling sanity on the batched "
                          "hot path; a violation alters timing, not stored "
                          "state, and core_test pins batched-vs-reference "
                          "bit-identical in debug builds");
        assert(pending_.empty() || pending_.front().at > batchedUntil_);
        wakeAt_ = batchedUntil_ + 1;
        return;
    }
    tick(now);
    tryBatch(now, limit);
}

DAPPER_LINT_ALLOW(engine-parity,
                  "event-engine-only by design: tryBatch fast-forwards "
                  "bubble-only stretches for System::run; it mutates only "
                  "retire bookkeeping the reference engine recomputes "
                  "tick-by-tick, and its entry conditions guarantee no "
                  "memory-system interaction inside the batch — "
                  "scheduler_equivalence_test pins the engines "
                  "bit-identical");
void
Core::tryBatch(Tick now, Tick limit)
{
    if (count_ == 0 || limit <= now)
        return;
    // Prime the head lazily, exactly as the next tick()'s retire loop
    // would; headBubblesLeft_/Primed_ are unobservable bookkeeping.
    if (!headBubblesPrimed_) {
        headBubblesLeft_ =
            rob_[static_cast<std::size_t>(head_)].bubblesBefore;
        headBubblesPrimed_ = true;
    }
    const std::uint32_t w = static_cast<std::uint32_t>(width_);
    if (headBubblesLeft_ < w)
        return;
    // Every batched tick retires exactly `width` bubbles and never
    // reaches the head's done flag. Fetch must stay occupancy-blocked
    // throughout. The occupancy check precedes every resource check in
    // the fetch loop, so MSHR/queue state is never read during the run;
    // with a full ROB the loop is not entered at all. Occupancy shrinks
    // by `width` per tick, so the run ends strictly before the first
    // tick where the pending record would fit. Signed arithmetic: the
    // fetch slack can be negative.
    std::int64_t slack = 0;
    if (count_ < robSize_) {
        if (!haveRec_) {
            // Same record tick(now + 1) would pull before its
            // occupancy check; the generator stream is per-core and
            // deterministic, so pulling it here is unobservable.
            rec_ = gen_->next();
            haveRec_ = true;
        }
        slack = static_cast<std::int64_t>(occupancy_) +
                static_cast<std::int64_t>(rec_.bubbles) + 1 -
                static_cast<std::int64_t>(robSize_);
        if (slack <= static_cast<std::int64_t>(w))
            return;
    }
    // Never model past a stat-probe boundary or the last simulated tick:
    // batch state is applied eagerly, and a probe must read exactly the
    // end-of-its-own-tick retired count.
    std::int64_t len = static_cast<std::int64_t>(limit - now);
    // No scheduled completion may pop inside the batch (tick(now) drained
    // everything due, so the front is always > now).
    if (!pending_.empty())
        len = std::min(len, static_cast<std::int64_t>(
                                pending_.front().at - now - 1));
    if (len < 1)
        return;
    // Past every exit, the bubble supply and fetch slack bound the run;
    // both quotients are >= 1 by the checks above.
    len = std::min(len, static_cast<std::int64_t>(headBubblesLeft_ / w));
    if (count_ < robSize_)
        len = std::min(len, (slack - 1) / static_cast<std::int64_t>(w));

    const std::uint64_t bubbles =
        static_cast<std::uint64_t>(w) * static_cast<std::uint64_t>(len);
    retired_ += bubbles;
    occupancy_ -= static_cast<int>(bubbles);
    headBubblesLeft_ -= static_cast<std::uint32_t>(bubbles);
    batchedUntil_ = now + static_cast<Tick>(len);
    now_ = batchedUntil_;
    wakeAt_ = batchedUntil_ + 1;
}

void
Core::tick(Tick now)
{
    DAPPER_LINT_ALLOW(raw-assert,
                      "per-tick scheduling sanity on the hot path; the "
                      "batched/tick engines are pinned bit-identical by "
                      "core_test and scheduler_equivalence_test, which run "
                      "with asserts enabled");
    assert(batchedUntil_ == 0 || now > batchedUntil_);
    now_ = now;
    bool progress = false;
    resourceStalled_ = false;

    // Timed completions (LLC hits).
    while (!pending_.empty() && pending_.front().at <= now) {
        rob_[pending_.front().slot].done = true;
        pending_.pop_front();
        progress = true;
    }

    // In-order retire, up to width instructions per cycle. Bubbles of the
    // head memory instruction retire first, then the instruction itself
    // once its data arrived.
    const std::uint64_t retiredBefore = retired_;
    int budget = width_;
    while (budget > 0 && count_ > 0) {
        Slot &head = rob_[static_cast<std::size_t>(head_)];
        if (!headBubblesPrimed_) {
            headBubblesLeft_ = head.bubblesBefore;
            headBubblesPrimed_ = true;
        }
        if (headBubblesLeft_ > 0) {
            const std::uint32_t n =
                std::min<std::uint32_t>(headBubblesLeft_,
                                        static_cast<std::uint32_t>(budget));
            headBubblesLeft_ -= n;
            budget -= static_cast<int>(n);
            retired_ += n;
            occupancy_ -= static_cast<int>(n);
            continue;
        }
        if (!head.done)
            break;
        head.valid = false;
        if (++head_ == robSize_)
            head_ = 0;
        --count_;
        --occupancy_;
        ++retired_;
        --budget;
        headBubblesPrimed_ = false;
    }
    progress = progress || retired_ != retiredBefore;

    // Fetch/issue, up to width instructions per cycle (bubbles count).
    int budget2 = width_;
    while (budget2 > 0 && count_ < robSize_) {
        if (!haveRec_) {
            rec_ = gen_->next();
            haveRec_ = true;
        }
        const int cost = static_cast<int>(rec_.bubbles) + 1;
        if (occupancy_ + cost > robSize_ &&
            count_ > 0) // Window full (always admit into an empty window).
            break;

        if (rec_.isWrite) {
            const CacheResult res =
                llc_->access(rec_.addr, true, this, Llc::kNoSlot, now);
            if (res == CacheResult::Blocked) {
                resourceStalled_ = true;
                break;
            }
            pushSlot(rec_.bubbles, true);
        } else if (rec_.bypassLlc) {
            if (outstanding_ >= mshrLimit_)
                break;
            Request req;
            req.dram = mapper_->decode(rec_.addr);
            req.type = ReqType::Read;
            req.coreId = id_;
            req.sink = this;
            MemController *mc =
                controllers_[static_cast<std::size_t>(req.dram.channel)];
            if (mc->readQueueFull()) {
                resourceStalled_ = true;
                break;
            }
            const std::uint32_t slot = pushSlot(rec_.bubbles, false);
            req.tag = slot;
            // A dropped read after the readQueueFull() gate would leave a
            // ROB slot waiting forever; never let Release builds limp on.
            const bool ok = mc->enqueue(req, now);
            DAPPER_CHECK(ok, "MC read enqueue failed after full-check");
            ++outstanding_;
            ++memReads_;
        } else {
            const std::uint32_t slot = pushSlot(rec_.bubbles, false);
            const CacheResult res =
                llc_->access(rec_.addr, false, this, slot, now);
            if (res == CacheResult::Blocked) {
                // Undo the slot and retry next cycle.
                tail_ = (tail_ == 0 ? robSize_ : tail_) - 1;
                --count_;
                occupancy_ -= cost;
                rob_[slot].valid = false;
                resourceStalled_ = true;
                break;
            }
            ++memReads_;
        }
        haveRec_ = false;
        budget2 -= cost;
        progress = true;
    }

    // Next-event watermark. A core that made progress may make more next
    // tick. A stalled core changes state only through a scheduled
    // completion (pending_) or an external wake(): its own memDone, an
    // LLC fill for a merged miss, or a WakeHub broadcast when an MSHR or
    // read-queue slot frees. Stalled ticks perform no observable state
    // change, so skipping them preserves bit-identical behaviour.
    wakeAt_ = progress ? now + 1
                       : (pending_.empty() ? kTickMax
                                           : pending_.front().at);
}

} // namespace dapper
