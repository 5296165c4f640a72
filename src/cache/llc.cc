#include "src/cache/llc.hh"

#include "src/common/check.hh"
#include "src/cpu/core.hh"
#include "src/mem/controller.hh"

namespace dapper {

Llc::Llc(const SysConfig &cfg, const AddressMapper &mapper,
         std::vector<MemController *> controllers)
    : cfg_(cfg),
      mapper_(mapper),
      controllers_(std::move(controllers)),
      sets_(cfg.llcSets()),
      ways_(cfg.llcWays),
      lineBits_(static_cast<unsigned>(mapper.lineBits())),
      maxMshrs_(static_cast<std::size_t>(cfg.llcMshrs())),
      mshrs_(maxMshrs_),
      waiterPool_(maxMshrs_)
{
    if (sets_ > 0 && (sets_ & (sets_ - 1)) == 0) {
        setMask_ = static_cast<std::uint64_t>(sets_) - 1;
        while ((1 << setBits_) < sets_)
            ++setBits_;
    }
    // The 32-bit tag lanes store set-relative tags (lineAddr / sets);
    // every such tag — incl. START counter-line ids, bounded by the
    // total row count — must stay below the sentinel.
    DAPPER_CHECK((cfg.totalBytes() >> lineBits_) /
                         static_cast<std::uint64_t>(sets_) <
                     kInvalidTag,
                 "DRAM set-relative tags must fit the 32-bit LLC tag lane");
    const std::size_t slots =
        static_cast<std::size_t>(sets_) * static_cast<std::size_t>(ways_);
    tags_.assign(slots, kInvalidTag);
    lru_ = std::make_unique_for_overwrite<std::uint32_t[]>(slots);
    dirty_ = std::make_unique_for_overwrite<std::uint8_t[]>(slots);
}

void
Llc::writeback(std::uint64_t tag, Tick now)
{
    Request wb;
    wb.dram = mapper_.decode(tag << lineBits_);
    wb.type = ReqType::Write;
    wb.sink = nullptr;
    ++stats_.writebacks;
    // A full write queue drops the writeback (historical demand-path
    // behaviour, kept for output stability); the drop is counted so a
    // bulk reserveWays() eviction that overruns the queue is visible
    // instead of silently under-reporting DRAM write traffic.
    if (!controllers_[static_cast<std::size_t>(wb.dram.channel)]->enqueue(
            wb, now))
        ++stats_.droppedWritebacks;
}

void
Llc::reserveWays(int ways, Tick now)
{
    // Out-of-range reservations would index past the tag arrays below;
    // reconfiguration is cold, so keep the bound check in Release too.
    DAPPER_CHECK(ways >= 0 && ways < ways_,
                 "reserveWays: reservation out of range");
    reservedWays_ = ways;
    // Every install and hit stamps through nextLru, and renormalizeLru
    // restarts the clock at ways_ >= 2 (a reservation needs two ways),
    // so a clock still at its initial 1 means no way was ever valid.
    if (lruClock_ == 1)
        return;
    // Evict everything sitting in the now-reserved ways. Dirty lines
    // become DRAM writebacks — the reconfiguration must not swallow
    // write traffic the lines still owe.
    for (int s = 0; s < sets_; ++s) {
        const std::size_t base = wayBase(static_cast<std::uint64_t>(s));
        for (int w = 0; w < ways; ++w) {
            const std::size_t i = base + static_cast<std::size_t>(w);
            if (tags_[i] == kInvalidTag)
                continue;
            if (dirty_[i] != 0)
                writeback(lineOf(tags_[i], s), now);
            tags_[i] = kInvalidTag;
        }
    }
}

CacheResult
Llc::access(std::uint64_t byteAddr, bool isWrite, Core *core,
            std::uint32_t slot, Tick now)
{
    const std::uint64_t lineAddr = byteAddr >> lineBits_;
    const std::uint32_t tag = tagOf(lineAddr);
    const int set = setIndex(lineAddr);
    const std::size_t base = wayBase(static_cast<std::uint64_t>(set));
    const std::uint32_t *tags = &tags_[base];

    // Look up in the demand ways: a contiguous tag-lane scan (invalid
    // ways hold the sentinel, which never equals a real line address).
    for (int w = reservedWays_; w < ways_; ++w) {
        if (tags[w] == tag) {
            const std::size_t i = base + static_cast<std::size_t>(w);
            lru_[i] = nextLru();
            if (isWrite)
                dirty_[i] = 1;
            ++stats_.hits;
            if (!isWrite && core != nullptr && slot != kNoSlot)
                core->completeAfter(slot, cfg_.llcHitLatency);
            return CacheResult::Hit;
        }
    }

    // Miss. Merge into an existing MSHR if present.
    if (MshrEntry *entry = mshrs_.find(lineAddr)) {
        if (!isWrite && core != nullptr && slot != kNoSlot)
            appendWaiter(*entry, core, slot);
        if (isWrite)
            entry->isWrite = true;
        ++stats_.misses;
        return CacheResult::MergedMiss;
    }

    if (mshrs_.size() >= maxMshrs_) {
        mshrBlockedSinceWake_ = true;
        return CacheResult::Blocked;
    }

    MshrEntry entry;
    entry.isWrite = isWrite;
    if (!isWrite && core != nullptr && slot != kNoSlot)
        appendWaiter(entry, core, slot);
    mshrs_.insert(lineAddr, entry);
    ++stats_.misses;

    Request req;
    req.dram = mapper_.decode(byteAddr);
    req.type = ReqType::Read;
    req.coreId = core != nullptr ? core->id() : -1;
    req.sink = this;
    req.tag = 0;
    req.lineAddr = lineAddr;
    const bool ok =
        controllers_[static_cast<std::size_t>(req.dram.channel)]->enqueue(
            req, now);
    // A dropped fill request would strand the MSHR (and its waiters)
    // forever; the config sizes the MC read queue to cover all MSHRs,
    // so this must hold in every build type, not just with asserts on.
    DAPPER_CHECK(ok, "MC read queue sized to cover all MSHRs");
    return CacheResult::Miss;
}

void
Llc::appendWaiter(MshrEntry &entry, Core *core, std::uint32_t slot)
{
    const std::int32_t n =
        waiterPool_.alloc({core, slot, FreeListArena<Waiter>::kNone});
    if (entry.waiterTail == FreeListArena<Waiter>::kNone)
        entry.waiterHead = n;
    else
        waiterPool_.at(entry.waiterTail).next = n;
    entry.waiterTail = n;
}

void
Llc::insertLine(std::uint64_t lineAddr, bool dirty, Tick now)
{
    const int set = setIndex(lineAddr);
    const std::size_t base = wayBase(static_cast<std::uint64_t>(set));

    // First invalid way, else the LRU way (demand region only).
    std::size_t victim = base + static_cast<std::size_t>(reservedWays_);
    for (int w = reservedWays_; w < ways_; ++w) {
        const std::size_t i = base + static_cast<std::size_t>(w);
        if (tags_[i] == kInvalidTag) {
            victim = i;
            break;
        }
        if (lru_[i] < lru_[victim])
            victim = i;
    }

    if (tags_[victim] != kInvalidTag && dirty_[victim] != 0)
        writeback(lineOf(tags_[victim], set), now);

    tags_[victim] = tagOf(lineAddr);
    dirty_[victim] = dirty ? 1 : 0;
    lru_[victim] = nextLru();
}

void
Llc::renormalizeLru()
{
    // Rewrite every set's stamps as their rank order (0..ways-1). An
    // invalid way ranks as stamp 0 (its lane holds no value). Ties keep
    // the lower way index first, matching the strict-< victim scan's
    // tie-break, so victim choices are unchanged forever after. Cost is
    // O(sets * ways^2) but the clock only gets here after 2^32 - 1
    // touches.
    DAPPER_CHECK(ways_ <= 64, "renormalizeLru: order[] buffer too small");
    const auto stamp = [this](std::size_t i) {
        return tags_[i] == kInvalidTag ? 0u : lru_[i];
    };
    for (int s = 0; s < sets_; ++s) {
        const std::size_t base = wayBase(static_cast<std::uint64_t>(s));
        int order[64]; // way indices, sorted by (stamp, index)
        for (int w = 0; w < ways_; ++w) {
            int k = w;
            while (k > 0 && stamp(base + static_cast<std::size_t>(
                                             order[k - 1])) >
                                stamp(base + static_cast<std::size_t>(w))) {
                order[k] = order[k - 1];
                --k;
            }
            order[k] = w;
        }
        for (int r = 0; r < ways_; ++r)
            lru_[base + static_cast<std::size_t>(order[r])] =
                static_cast<std::uint32_t>(r);
    }
    lruClock_ = static_cast<std::uint32_t>(ways_);
}

void
Llc::memDone(const Request &req, Tick now)
{
    const std::uint64_t lineAddr = req.lineAddr;
    MshrEntry *entry = mshrs_.find(lineAddr);
    if (entry == nullptr)
        return; // Spurious (possible after reserved-way reconfiguration).

    insertLine(lineAddr, entry->isWrite, now);
    for (std::int32_t w = entry->waiterHead;
         w != FreeListArena<Waiter>::kNone;) {
        const Waiter &waiter = waiterPool_.at(w);
        waiter.core->completeNow(waiter.slot);
        waiter.core->wake(now + 1); // Head may retire next tick.
        const std::int32_t next = waiter.next;
        waiterPool_.release(w);
        w = next;
    }
    mshrs_.erase(lineAddr);
    // An MSHR freed: cores stalled on CacheResult::Blocked can proceed.
    // Broadcast only if someone actually hit Blocked since the last
    // broadcast — a full MSHR table implies an outstanding fill, so a
    // completion (and with it this broadcast) is always still coming;
    // skipping the no-op wakes keeps millions of spurious core visits
    // off the event engine (visits are idempotent, outputs unchanged).
    if (wakeHub_ != nullptr && mshrBlockedSinceWake_) {
        mshrBlockedSinceWake_ = false;
        wakeHub_->requestWakeAll(now + 1);
    }
}

Llc::CounterAccessResult
Llc::counterAccess(std::uint64_t counterLine, bool makeDirty)
{
    CounterAccessResult result;
    if (reservedWays_ == 0)
        return result;

    const int set = setIndex(counterLine);
    const std::uint32_t tag = tagOf(counterLine);
    const std::size_t base = wayBase(static_cast<std::uint64_t>(set));
    const std::uint32_t *tags = &tags_[base];

    for (int w = 0; w < reservedWays_; ++w) {
        if (tags[w] == tag) {
            const std::size_t i = base + static_cast<std::size_t>(w);
            lru_[i] = nextLru();
            dirty_[i] = dirty_[i] != 0 || makeDirty ? 1 : 0;
            result.hit = true;
            ++stats_.counterHits;
            return result;
        }
    }

    // Miss: install, evicting LRU from the reserved region.
    ++stats_.counterMisses;
    std::size_t victim = base;
    for (int w = 0; w < reservedWays_; ++w) {
        const std::size_t i = base + static_cast<std::size_t>(w);
        if (tags_[i] == kInvalidTag) {
            victim = i;
            break;
        }
        if (lru_[i] < lru_[victim])
            victim = i;
    }
    if (tags_[victim] != kInvalidTag && dirty_[victim] != 0)
        result.evictedDirty = true;
    tags_[victim] = tag;
    dirty_[victim] = makeDirty ? 1 : 0;
    lru_[victim] = nextLru();
    return result;
}

} // namespace dapper
