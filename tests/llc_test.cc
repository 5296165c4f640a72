/**
 * @file
 * LLC tests: hit/miss behaviour, LRU eviction, writebacks, MSHR
 * merging, the START reserved-way counter region, and the lane
 * invariant (LRU stamps and dirty bits are read only behind a valid
 * tag, so their uninitialized storage never shows).
 */

#include <gtest/gtest.h>

#include <vector>

#include "src/cache/llc.hh"
#include "src/common/check.hh"
#include "src/cpu/core.hh"
#include "src/mem/controller.hh"
#include "src/sim/system.hh"
#include "src/workload/benign.hh"

namespace dapper {

/** Presets the LRU clock so a test reaches renormalizeLru without
 *  2^32 touches. */
struct LlcTestPeer
{
    static void setLruClock(Llc &llc, std::uint32_t v) { llc.lruClock_ = v; }
    static std::uint32_t lruClock(const Llc &llc) { return llc.lruClock_; }
};

namespace {

class LlcTest : public ::testing::Test
{
  protected:
    LlcTest()
        : mapper_(cfg_),
          mc_(cfg_, 0, nullptr, nullptr, nullptr),
          mc1_(cfg_, 1, nullptr, nullptr, nullptr),
          llc_(cfg_, mapper_, {&mc_, &mc1_})
    {
    }

    void
    runTo(Tick end)
    {
        for (; now_ < end; ++now_) {
            mc_.tick(now_);
            mc1_.tick(now_);
        }
    }

    SysConfig cfg_;
    AddressMapper mapper_;
    MemController mc_;
    MemController mc1_;
    Llc llc_;
    Tick now_ = 0;
};

TEST_F(LlcTest, MissThenHit)
{
    EXPECT_EQ(llc_.access(0x1000, false, nullptr, Llc::kNoSlot, 0),
              CacheResult::Miss);
    runTo(2000); // Let the fill return.
    EXPECT_EQ(llc_.access(0x1000, false, nullptr, Llc::kNoSlot, now_),
              CacheResult::Hit);
    EXPECT_EQ(llc_.stats().hits, 1u);
    EXPECT_EQ(llc_.stats().misses, 1u);
}

TEST_F(LlcTest, MshrMergesSameLine)
{
    EXPECT_EQ(llc_.access(0x2000, false, nullptr, Llc::kNoSlot, 0),
              CacheResult::Miss);
    EXPECT_EQ(llc_.access(0x2000, false, nullptr, Llc::kNoSlot, 0),
              CacheResult::MergedMiss);
    EXPECT_EQ(llc_.access(0x2040, false, nullptr, Llc::kNoSlot, 0),
              CacheResult::Miss); // Different line.
}

TEST_F(LlcTest, DirtyEvictionWritesBack)
{
    // Fill one set beyond capacity with dirty lines. Same set index:
    // stride = sets * lineBytes.
    const std::uint64_t stride =
        static_cast<std::uint64_t>(cfg_.llcSets()) * cfg_.lineBytes;
    for (int i = 0; i < cfg_.llcWays + 4; ++i) {
        llc_.access(0x8000 + stride * static_cast<std::uint64_t>(i), true,
                    nullptr, Llc::kNoSlot, now_);
        runTo(now_ + 400); // Fill between accesses.
    }
    runTo(now_ + 5000);
    EXPECT_GT(llc_.stats().writebacks, 0u);
}

TEST_F(LlcTest, ReservedWaysShrinkDemandCapacity)
{
    llc_.reserveWays(cfg_.llcWays / 2, now_);
    EXPECT_EQ(llc_.reservedWays(), 8);
    const std::uint64_t stride =
        static_cast<std::uint64_t>(cfg_.llcSets()) * cfg_.lineBytes;
    // Fill 10 lines in one set; with only 8 demand ways the first two
    // get evicted.
    for (int i = 0; i < 10; ++i) {
        llc_.access(stride * static_cast<std::uint64_t>(i), false, nullptr,
                    Llc::kNoSlot, now_);
        runTo(now_ + 400);
    }
    const auto missesBefore = llc_.stats().misses;
    EXPECT_EQ(llc_.access(0, false, nullptr, Llc::kNoSlot, now_),
              CacheResult::Miss); // Evicted by capacity pressure.
    EXPECT_EQ(llc_.stats().misses, missesBefore + 1);
}

TEST_F(LlcTest, CounterRegionHitsAndEvictions)
{
    llc_.reserveWays(8, now_);
    const auto first = llc_.counterAccess(42, true);
    EXPECT_FALSE(first.hit);
    const auto second = llc_.counterAccess(42, false);
    EXPECT_TRUE(second.hit);

    // Overflow the reserved ways of set 42's set with distinct counter
    // lines; eventually the dirty line 42 is evicted.
    bool sawDirtyEvict = false;
    for (int i = 1; i <= 9; ++i) {
        const auto res = llc_.counterAccess(
            42 + static_cast<std::uint64_t>(i) * cfg_.llcSets(), false);
        EXPECT_FALSE(res.hit);
        sawDirtyEvict = sawDirtyEvict || res.evictedDirty;
    }
    EXPECT_TRUE(sawDirtyEvict);
    EXPECT_GT(llc_.stats().counterMisses, 0u);
}

TEST_F(LlcTest, CounterRegionDisabledWithoutReservation)
{
    const auto res = llc_.counterAccess(7, true);
    EXPECT_FALSE(res.hit);
    EXPECT_FALSE(res.evictedDirty);
    EXPECT_EQ(llc_.stats().counterMisses, 0u);
}

// Regression: reserveWays used to invalidate the newly reserved ways in
// place, silently dropping dirty lines — DRAM write traffic vanished
// after a reconfiguration. Displaced dirty lines must be written back
// (and counted).
TEST_F(LlcTest, ReserveWaysWritesBackDisplacedDirtyLines)
{
    // 8 dirty lines in one set land in ways 0..7 (first-invalid fill
    // order), exactly the region a later reserveWays(8) claims.
    const std::uint64_t stride =
        static_cast<std::uint64_t>(cfg_.llcSets()) * cfg_.lineBytes;
    for (int i = 0; i < 8; ++i) {
        llc_.access(stride * static_cast<std::uint64_t>(i), true, nullptr,
                    Llc::kNoSlot, now_);
        runTo(now_ + 400); // Fill between accesses: no evictions yet.
    }
    ASSERT_EQ(llc_.stats().writebacks, 0u);

    llc_.reserveWays(8, now_);
    EXPECT_EQ(llc_.stats().writebacks, 8u);
    EXPECT_EQ(llc_.stats().droppedWritebacks, 0u); // Queue had room.

    // The displaced lines are gone from the demand region.
    const auto missesBefore = llc_.stats().misses;
    EXPECT_EQ(llc_.access(0, false, nullptr, Llc::kNoSlot, now_),
              CacheResult::Miss);
    EXPECT_EQ(llc_.stats().misses, missesBefore + 1);
}

TEST(LlcCheck, FatalCheckAbortsInEveryBuildType)
{
    // The MC-enqueue guard in Llc::access must not compile out under
    // NDEBUG; DAPPER_CHECK aborts unconditionally.
    EXPECT_DEATH(DAPPER_CHECK(false, "unconditional fatal check"),
                 "unconditional fatal check");
}

/**
 * Saturating the MC write queue makes Llc::writeback drop the excess
 * and count it: dirty >512-per-channel lines, then displace them all
 * at once with reserveWays() so the writeback burst overruns the
 * queues with no MC tick in between. The counter must be reachable
 * through the stats export ("llc.droppedWritebacks") — it used to be
 * counted but unreadable from any bench or test.
 */
TEST_F(LlcTest, SaturatedWriteQueueCountsDroppedWritebacks)
{
    // Dirty one line in 1500 distinct sets. Write misses allocate
    // MSHRs (capacity 256), so fill in batches, draining between them.
    const int kLines = 1500;
    int issued = 0;
    while (issued < kLines) {
        const std::uint64_t addr =
            static_cast<std::uint64_t>(issued) * 64;
        if (llc_.access(addr, true, nullptr, Llc::kNoSlot, now_) ==
            CacheResult::Blocked) {
            runTo(now_ + 20000); // Drain fills to free MSHRs.
            continue;
        }
        ++issued;
    }
    runTo(now_ + 50000); // Complete the last batch of fills.
    ASSERT_EQ(llc_.stats().droppedWritebacks, 0u);

    // Fresh fills land in way 0 of each untouched set, so reserving
    // the low ways displaces every dirty line in one burst: ~750
    // writebacks per channel against a 512-entry write queue.
    llc_.reserveWays(8, now_);
    EXPECT_EQ(llc_.stats().writebacks, static_cast<unsigned>(kLines));
    EXPECT_GT(llc_.stats().droppedWritebacks, 0u);
    EXPECT_LT(llc_.stats().droppedWritebacks,
              static_cast<std::uint64_t>(kLines));

    // Reachable through the telemetry export, under the same name the
    // System publishes ("llc." prefix).
    StatDict dict;
    StatWriter writer(dict);
    StatWriter scoped = writer.scope("llc");
    llc_.exportStats(scoped);
    EXPECT_EQ(dict.u64("llc.droppedWritebacks"),
              llc_.stats().droppedWritebacks);
    EXPECT_EQ(dict.u64("llc.writebacks"), llc_.stats().writebacks);
}

TEST_F(LlcTest, DemandAndCounterRegionsAreDisjoint)
{
    llc_.reserveWays(8, now_);
    // A demand line and a counter line with identical index bits must
    // not evict each other.
    llc_.access(0x4000, false, nullptr, Llc::kNoSlot, 0);
    runTo(2000);
    const std::uint64_t counterLine = (0x4000ull >> 6);
    llc_.counterAccess(counterLine, true);
    EXPECT_EQ(llc_.access(0x4000, false, nullptr, Llc::kNoSlot, now_),
              CacheResult::Hit);
    EXPECT_TRUE(llc_.counterAccess(counterLine, false).hit);
}

/**
 * One LLC with its own controllers, driven through a fixed script of
 * demand and counter accesses whose every outcome is recorded, so two
 * caches that should behave alike can be compared outcome by outcome.
 */
class LlcRig
{
  public:
    explicit LlcRig(const SysConfig &cfg)
        : cfg_(cfg),
          mapper_(cfg_),
          mc_(cfg_, 0, nullptr, nullptr, nullptr),
          mc1_(cfg_, 1, nullptr, nullptr, nullptr),
          llc_(cfg_, mapper_, {&mc_, &mc1_})
    {
    }

    Llc &llc() { return llc_; }

    void reserve(int ways) { llc_.reserveWays(ways, now_); }

    /** Demand access to line @p k of set @p set; waits for the fill. */
    void
    access(int set, int k, bool write)
    {
        const std::uint64_t line =
            static_cast<std::uint64_t>(set) +
            static_cast<std::uint64_t>(k) *
                static_cast<std::uint64_t>(cfg_.llcSets());
        log_.push_back(static_cast<int>(llc_.access(
            line * static_cast<std::uint64_t>(cfg_.lineBytes), write,
            nullptr, Llc::kNoSlot, now_)));
        for (const Tick end = now_ + 400; now_ < end; ++now_) {
            mc_.tick(now_);
            mc1_.tick(now_);
        }
    }

    /** Counter access to counter line @p k of set @p set. */
    void
    counter(int set, int k, bool dirty)
    {
        const auto r = llc_.counterAccess(
            static_cast<std::uint64_t>(set) +
                static_cast<std::uint64_t>(k) *
                    static_cast<std::uint64_t>(cfg_.llcSets()),
            dirty);
        log_.push_back(10 + (r.hit ? 2 : 0) + (r.evictedDirty ? 1 : 0));
    }

    /**
     * Partly fill two sets' demand and counter regions (some ways stay
     * invalid), retouch them out of fill order, overflow both regions so
     * LRU picks victims, then probe every line again.
     */
    void
    script()
    {
        for (const int set : {0, 5}) {
            for (int k = 0; k < 6; ++k)
                access(set, k, k % 2 == 0);
            for (int k = 0; k < 3; ++k)
                counter(set, k, k == 1);
            for (const int k : {3, 0, 5, 1})
                access(set, k, false);
            counter(set, 2, false);
            counter(set, 0, true);
            for (int k = 6; k < 11; ++k)
                access(set, k, k == 7);
            for (int k = 3; k < 10; ++k)
                counter(set, k, k % 3 == 0);
        }
        for (const int set : {0, 5}) {
            for (int k = 0; k < 11; ++k)
                access(set, k, false);
            for (int k = 0; k < 10; ++k)
                counter(set, k, false);
        }
    }

    /** Forget the outcomes so far; outcomes() counts from here. */
    void
    mark()
    {
        log_.clear();
        base_ = llc_.stats();
    }

    /** Outcome log plus the cache's counters since mark(). */
    std::vector<std::uint64_t>
    outcomes() const
    {
        std::vector<std::uint64_t> out(log_.begin(), log_.end());
        const LlcStats &st = llc_.stats();
        out.push_back(st.hits - base_.hits);
        out.push_back(st.misses - base_.misses);
        out.push_back(st.writebacks - base_.writebacks);
        out.push_back(st.droppedWritebacks - base_.droppedWritebacks);
        out.push_back(st.counterHits - base_.counterHits);
        out.push_back(st.counterMisses - base_.counterMisses);
        return out;
    }

  private:
    SysConfig cfg_;
    AddressMapper mapper_;
    MemController mc_;
    MemController mc1_;
    Llc llc_;
    Tick now_ = 0;
    std::vector<int> log_;
    LlcStats base_;
};

// renormalizeLru rewrites every stamp to its rank once the 32-bit clock
// is about to wrap; victim order must not change across it, with some
// ways invalid (their lanes hold no value) and half the ways reserved.
TEST(LlcLanes, LruRenormalizationKeepsVictimOrder)
{
    SysConfig cfg;
    LlcRig fresh(cfg);
    LlcRig wrapped(cfg);
    fresh.reserve(8);
    wrapped.reserve(8);
    // The first set's 9 fills and 4 of its retouches stamp before the
    // wrap; the rest of the script runs on renormalized stamps.
    const std::uint32_t preset = ~std::uint32_t(0) - 13;
    LlcTestPeer::setLruClock(wrapped.llc(), preset);
    fresh.script();
    wrapped.script();
    EXPECT_LT(LlcTestPeer::lruClock(wrapped.llc()), preset)
        << "the script never crossed the wrap";
    EXPECT_GT(fresh.llc().stats().writebacks, 0u);
    EXPECT_EQ(fresh.outcomes(), wrapped.outcomes());
}

// The LRU and dirty lanes are allocated uninitialized: a cache built on
// heap blocks a previous owner scribbled over must behave exactly like
// one built on any other memory.
TEST(LlcLanes, ScribbledHeapDoesNotLeakIntoOutcomes)
{
    SysConfig cfg;
    cfg.llcBytes = 64 * 16 * 64; // 64 sets: lanes come from the heap bins.
    const std::size_t slots = static_cast<std::size_t>(cfg.llcSets()) *
                              static_cast<std::size_t>(cfg.llcWays);
    LlcRig fresh(cfg);
    fresh.reserve(8);
    fresh.script();

    // Same-size blocks for the tag, LRU and dirty lanes, freed dirty so
    // the allocator can hand them straight back to the next cache.
    for (const std::size_t bytes :
         {slots * sizeof(std::uint32_t), slots * sizeof(std::uint32_t),
          slots}) {
        void *block = ::operator new(bytes);
        volatile unsigned char *p = static_cast<unsigned char *>(block);
        for (std::size_t i = 0; i < bytes; ++i)
            p[i] = 0xA5;
        ::operator delete(block);
    }
    LlcRig scribbled(cfg);
    scribbled.reserve(8);
    scribbled.script();
    EXPECT_EQ(fresh.outcomes(), scribbled.outcomes());
}

// A reservation on a cache that never installed a line skips the sweep;
// it must leave the cache exactly where the warm path (evict the
// reserved ways' lines, write the dirty ones back) does.
TEST(LlcLanes, ColdReservationMatchesWarmPath)
{
    SysConfig cfg;
    LlcRig cold(cfg);
    LlcRig warm(cfg);
    cold.reserve(8);
    // Eight dirty lines per scripted set land in ways 0..7 (first
    // invalid way first), exactly the region reserveWays(8) claims.
    for (const int set : {0, 5})
        for (int k = 20; k < 28; ++k)
            warm.access(set, k, true);
    const std::uint64_t before = warm.llc().stats().writebacks;
    warm.reserve(8);
    EXPECT_EQ(warm.llc().stats().writebacks, before + 16);

    cold.mark();
    warm.mark();
    cold.script();
    warm.script();
    EXPECT_EQ(cold.outcomes(), warm.outcomes());
}

} // namespace
} // namespace dapper
