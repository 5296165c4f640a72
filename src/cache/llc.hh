/**
 * @file
 * Shared last-level cache: set-associative, LRU, write-back /
 * write-allocate, with MSHRs and an optional reserved-way region used by
 * the START tracker to hold RowHammer counters (Section III-A).
 *
 * Reserving ways shrinks the capacity available to demand lines — the
 * first ingredient of the START Perf-Attack — while counter lookups that
 * miss in the reserved region cost DRAM counter traffic (the second).
 *
 * Hot-path layout: line state is struct-of-arrays. The way scan in
 * access()/counterAccess() — the flat-profile leader after the PR 2
 * controller work — walks a contiguous per-set tag lane (invalid slots
 * hold a sentinel tag, so the probe is a bare compare with no valid-bit
 * load); LRU ranks and dirty bits live in parallel lanes touched only
 * on hit or fill. Tag and LRU lanes are 32-bit: the stored tag is the
 * set-relative tag (lineAddr / sets, reconstructed as tag * sets + set
 * on eviction — exact for both the pow2-mask and modulo set-index
 * paths), which fits 32 bits for any capacity below 256 GB * sets
 * (checked at construction), and the LRU clock renormalizes before it
 * can wrap, halving the metadata cache footprint the miss path streams
 * through. The MSHR
 * table is a flat open-addressing map keyed on line address
 * (src/common/flat_map.hh), so the miss path allocates nothing for the
 * table itself.
 *
 * Lane invariant: a way's LRU stamp and dirty bit have a value only
 * while its tag is valid. Every read of those lanes sits behind a
 * valid-tag test (renormalizeLru ranks an invalid way as stamp 0), so
 * construction fills only the tag lane with the sentinel and leaves the
 * LRU and dirty lanes uninitialized, and invalidating a way resets only
 * its tag. A cold reservation (reserveWays before any line was
 * installed) has nothing to evict and sweeps nothing, so START's
 * reserved region costs a System build no pass over the cache.
 */

#ifndef DAPPER_CACHE_LLC_HH
#define DAPPER_CACHE_LLC_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/arena.hh"
#include "src/common/config.hh"
#include "src/common/flat_map.hh"
#include "src/common/stats.hh"
#include "src/dram/address.hh"
#include "src/mem/request.hh"
#include "src/sim/scheduler.hh"

namespace dapper {

class MemController;
class Core;

/** LLC access result as seen by a core. */
enum class CacheResult
{
    Hit,        ///< Served from the cache after llcHitLatency.
    Miss,       ///< MSHR allocated; completion arrives via Core callback.
    MergedMiss, ///< Appended to an existing MSHR.
    Blocked,    ///< No MSHR available; core must retry.
};

/** Aggregate cache statistics. */
struct LlcStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;
    /// Writebacks the MC write queue had no room for (see Llc::writeback).
    std::uint64_t droppedWritebacks = 0;
    std::uint64_t counterHits = 0;
    std::uint64_t counterMisses = 0;
};

class Llc : public MemSink
{
  public:
    Llc(const SysConfig &cfg, const AddressMapper &mapper,
        std::vector<MemController *> controllers);

    /**
     * Demand access from @p core. On a miss the core's slot is completed
     * via Core::completeNow when the fill returns; on a hit the core is
     * told to self-complete after llcHitLatency. Writes never block the
     * core (store-buffer assumption) and pass slot == kNoSlot.
     */
    CacheResult access(std::uint64_t byteAddr, bool isWrite, Core *core,
                       std::uint32_t slot, Tick now);

    /** Fill path from memory. */
    void memDone(const Request &req, Tick now) override;

    /**
     * Event-driven wiring (optional): fills free an MSHR, which may
     * unblock any core, so they broadcast through the hub.
     */
    void setWakeHub(WakeHub *hub) { wakeHub_ = hub; }

    /**
     * Reserve the low @p ways of every set for RH counter lines (START).
     * Dirty demand lines displaced by the reconfiguration are written
     * back to DRAM (at @p now, the current simulation time), not
     * dropped. On a cache that never installed a line this is O(1).
     */
    void reserveWays(int ways, Tick now);
    int reservedWays() const { return reservedWays_; }

    /** Result of a counter-region access (START tracker interface). */
    struct CounterAccessResult
    {
        bool hit = false;
        bool evictedDirty = false;
    };

    /**
     * Look up / install an RH counter line in the reserved region.
     * Pure tag-state operation; the tracker turns misses into DRAM
     * counter traffic.
     */
    CounterAccessResult counterAccess(std::uint64_t counterLine,
                                      bool makeDirty);

    const LlcStats &stats() const { return stats_; }

    /** Telemetry under the caller's prefix (System: "llc."). */
    void
    exportStats(StatWriter &w) const
    {
        w.u64("hits", stats_.hits);
        w.u64("misses", stats_.misses);
        w.u64("writebacks", stats_.writebacks);
        w.u64("droppedWritebacks", stats_.droppedWritebacks);
        w.u64("counterHits", stats_.counterHits);
        w.u64("counterMisses", stats_.counterMisses);
        w.u64("reservedWays", static_cast<std::uint64_t>(reservedWays_));
        w.u64("mshrOccupancy", mshrs_.size());
    }

    static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  private:
    friend struct LlcTestPeer; // tests/llc_test.cc: presets lruClock_.

    /// Sentinel tag for invalid ways. The constructor checks every
    /// set-relative tag in the DRAM address space stays below this.
    static constexpr std::uint32_t kInvalidTag = ~std::uint32_t(0);

    /// One core waiting on a miss; chained through waiterPool_ indices
    /// (stable across MshrEntry moves inside the flat map) so merged
    /// misses allocate nothing.
    struct Waiter
    {
        Core *core = nullptr;
        std::uint32_t slot = 0;
        std::int32_t next = FreeListArena<int>::kNone;
    };

    struct MshrEntry
    {
        std::int32_t waiterHead = FreeListArena<int>::kNone;
        std::int32_t waiterTail = FreeListArena<int>::kNone;
        bool isWrite = false;
    };

    /** FIFO-append @p core to @p entry's waiter chain. */
    void appendWaiter(MshrEntry &entry, Core *core, std::uint32_t slot);

    std::size_t wayBase(std::uint64_t setIdx) const
    {
        return static_cast<std::size_t>(setIdx) *
               static_cast<std::size_t>(ways_);
    }
    /// Mask when the set count is a power of two (the default config),
    /// modulo otherwise so non-power-of-two LLC capacities (3/5 MB per
    /// core in Fig. 5) index correctly.
    int setIndex(std::uint64_t lineAddr) const
    {
        if (setMask_ != 0)
            return static_cast<int>(lineAddr & setMask_);
        return static_cast<int>(lineAddr %
                                static_cast<std::uint64_t>(sets_));
    }
    /// Set-relative tag stored in the 32-bit scan lane.
    std::uint32_t tagOf(std::uint64_t lineAddr) const
    {
        if (setMask_ != 0)
            return static_cast<std::uint32_t>(lineAddr >> setBits_);
        return static_cast<std::uint32_t>(
            lineAddr / static_cast<std::uint64_t>(sets_));
    }
    /// Inverse of (tagOf, setIndex): lineAddr = tag * sets + set holds
    /// for both the pow2-mask and the modulo indexing paths.
    std::uint64_t lineOf(std::uint32_t tag, int set) const
    {
        return static_cast<std::uint64_t>(tag) *
                   static_cast<std::uint64_t>(sets_) +
               static_cast<std::uint64_t>(set);
    }
    void insertLine(std::uint64_t lineAddr, bool dirty, Tick now);
    void writeback(std::uint64_t tag, Tick now);

    /**
     * Next LRU stamp. The 32-bit clock renormalizes each set's stamps
     * to their rank order (relative order — and thus every future
     * victim choice — is preserved exactly) before the clock can wrap;
     * reached only after 2^32 - 1 LLC touches, so it never shows up in
     * profiles.
     */
    std::uint32_t
    nextLru()
    {
        if (lruClock_ == ~std::uint32_t(0))
            renormalizeLru();
        return lruClock_++;
    }
    void renormalizeLru();

    const SysConfig cfg_;
    const AddressMapper &mapper_;
    std::vector<MemController *> controllers_;
    WakeHub *wakeHub_ = nullptr;
    /// A core saw CacheResult::Blocked since the last MSHR-free
    /// broadcast; gates memDone's requestWakeAll (see llc.cc).
    bool mshrBlockedSinceWake_ = false;
    int sets_;
    int ways_;
    /// sets_ - 1 when sets_ is a power of two, else 0 (use modulo).
    std::uint64_t setMask_ = 0;
    int setBits_ = 0; ///< log2(sets_) when setMask_ != 0.
    unsigned lineBits_;
    int reservedWays_ = 0;
    std::uint32_t lruClock_ = 1;
    /// SoA line state, each sets_ x ways_; ways [0, reservedWays_) hold
    /// counter lines (START). tags_ is the scan lane; lru_ and dirty_
    /// are uninitialized until their way's tag turns valid.
    std::vector<std::uint32_t> tags_;
    std::unique_ptr<std::uint32_t[]> lru_;
    std::unique_ptr<std::uint8_t[]> dirty_;
    std::size_t maxMshrs_;
    FlatMap64<MshrEntry> mshrs_;
    FreeListArena<Waiter> waiterPool_;
    LlcStats stats_;
};

} // namespace dapper

#endif // DAPPER_CACHE_LLC_HH
