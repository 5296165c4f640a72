/**
 * @file
 * Memory controller timing tests: row-hit vs row-miss latency, tRC /
 * tRRD pacing, refresh blocking, mitigation blocking windows (VRR,
 * RFMsb/DRFMsb granularity, bulk resets), counter-traffic priority,
 * write drain, and FR-FCFS ordering invariants of the windowed pick —
 * including a randomized stress, with and without BlockHammer-style
 * throttle re-queues, that cross-checks the cache-backed pick against
 * a brute-force windowed linear scan (auditQueues), and the same
 * stress — plus a closed-loop round-robin load that fills the FR-FCFS
 * scan window — run with the event engine's issue memo on vs. off.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "src/mem/controller.hh"

namespace dapper {
namespace {

/**
 * BlockHammer-shaped throttle stub: an ACT to one of a few hot rows may
 * only issue on a kSlot-tick boundary, so most of them are delayed by up
 * to a few hundred ticks and re-queued at the front of their queue.
 */
class HotRowThrottle : public Tracker
{
  public:
    static constexpr Tick kSlot = 400;
    static constexpr int kHotRows = 2;

    void
    onActivation(const ActEvent &event, MitigationVec &out) override
    {
        (void)event;
        (void)out;
    }

    Tick
    throttleUntil(const ActEvent &event) override
    {
        return event.row < kHotRows
                   ? (event.now + kSlot - 1) / kSlot * kSlot
                   : 0;
    }

    StorageEstimate storage() const override { return {}; }
    std::string name() const override { return "hot-row-throttle"; }
};

struct CaptureSink : MemSink
{
    std::vector<std::pair<Tick, Request>> done;
    void
    memDone(const Request &req, Tick now) override
    {
        done.emplace_back(now, req);
    }
};

class ControllerTest : public ::testing::Test
{
  protected:
    ControllerTest() : mc_(cfg_, 0, nullptr, nullptr, nullptr) {}

    Request
    read(int rank, int bank, int row, int col = 0)
    {
        Request req;
        req.dram = {0, rank, bank, row, col};
        req.type = ReqType::Read;
        req.sink = &sink_;
        return req;
    }

    void
    runTo(Tick end)
    {
        for (; now_ < end; ++now_)
            mc_.tick(now_);
    }

    void stressAgainstReference(Tracker *tracker);

    SysConfig cfg_;
    CaptureSink sink_;
    MemController mc_;
    Tick now_ = 0;
};

TEST_F(ControllerTest, RowMissLatencyIsActPlusCasPlusBurst)
{
    ASSERT_TRUE(mc_.enqueue(read(0, 0, 100), 0));
    runTo(500);
    ASSERT_EQ(sink_.done.size(), 1u);
    // tRCD + tCL + tBL = 16 + 16 + 2.5 ns = 138 ticks.
    const Tick expected = cfg_.tRCD() + cfg_.tCL() + cfg_.tBL();
    EXPECT_NEAR(static_cast<double>(sink_.done[0].first),
                static_cast<double>(expected), 8.0);
}

TEST_F(ControllerTest, RowHitIsFasterThanRowMiss)
{
    ASSERT_TRUE(mc_.enqueue(read(0, 0, 100, 0), 0));
    runTo(400);
    ASSERT_EQ(sink_.done.size(), 1u);
    const Tick missDone = sink_.done[0].first;

    ASSERT_TRUE(mc_.enqueue(read(0, 0, 100, 1), now_));
    const Tick start = now_;
    runTo(now_ + 400);
    ASSERT_EQ(sink_.done.size(), 2u);
    const Tick hitLatency = sink_.done[1].first - start;
    EXPECT_LT(hitLatency, missDone);
    EXPECT_EQ(mc_.stats().rowHits, 1u);
    EXPECT_EQ(mc_.stats().rowMisses, 1u);
}

TEST_F(ControllerTest, SameBankActsRespectTrc)
{
    // Two different rows in the same bank: the second ACT waits ~tRC.
    ASSERT_TRUE(mc_.enqueue(read(0, 0, 100), 0));
    ASSERT_TRUE(mc_.enqueue(read(0, 0, 200), 0));
    runTo(1000);
    ASSERT_EQ(sink_.done.size(), 2u);
    const Tick gap = sink_.done[1].first - sink_.done[0].first;
    EXPECT_GE(gap, cfg_.tRC() - cfg_.tRCD());
}

TEST_F(ControllerTest, DifferentBanksOverlap)
{
    ASSERT_TRUE(mc_.enqueue(read(0, 0, 100), 0));
    ASSERT_TRUE(mc_.enqueue(read(0, 8, 100), 0)); // Other bank group.
    runTo(1000);
    ASSERT_EQ(sink_.done.size(), 2u);
    const Tick gap = sink_.done[1].first - sink_.done[0].first;
    EXPECT_LT(gap, cfg_.tRC() / 2); // Bank-level parallelism.
    EXPECT_GE(gap, cfg_.tRRDS());
}

TEST_F(ControllerTest, RefreshHappensEveryTrefi)
{
    runTo(cfg_.tREFI() * 5);
    // Two ranks, ~4-5 refresh slots each elapsed.
    EXPECT_GE(mc_.stats().refreshes, 7u);
    EXPECT_LE(mc_.stats().refreshes, 12u);
}

TEST_F(ControllerTest, VrrBlocksOnlyTargetBank)
{
    mc_.applyMitigation({Mitigation::Kind::VrrRow, 0, 0, 3, 500}, 0);
    ASSERT_TRUE(mc_.enqueue(read(0, 3, 100), 0)); // Blocked bank.
    ASSERT_TRUE(mc_.enqueue(read(0, 4, 100), 0)); // Free bank.
    runTo(1200);
    ASSERT_EQ(sink_.done.size(), 2u);
    // The free-bank read (bank 4) completes first, well before VRR ends.
    EXPECT_EQ(sink_.done[0].second.dram.bank, 4);
    EXPECT_GE(sink_.done[1].first, cfg_.vrrTicks());
}

TEST_F(ControllerTest, DrfmSbBlocksSameBankAcrossGroups)
{
    // DRFMsb on bank 2 blocks banks {2, 6, 10, ...} (same position in
    // every group) but not bank 3.
    mc_.applyMitigation({Mitigation::Kind::DrfmSbRow, 0, 0, 2, 500}, 0);
    ASSERT_TRUE(mc_.enqueue(read(0, 6, 100), 0));  // 2nd group, same pos.
    ASSERT_TRUE(mc_.enqueue(read(0, 3, 100), 0));  // Different position.
    runTo(2000);
    ASSERT_EQ(sink_.done.size(), 2u);
    EXPECT_EQ(sink_.done[0].second.dram.bank, 3);
    EXPECT_GE(sink_.done[1].first, cfg_.drfmSbTicks());
}

TEST_F(ControllerTest, BulkRankRefreshBlocksWholeRankForLong)
{
    mc_.applyMitigation({Mitigation::Kind::BulkRank, 0, 0, 0, 0}, 0);
    ASSERT_TRUE(mc_.enqueue(read(0, 9, 50), 0));
    ASSERT_TRUE(mc_.enqueue(read(1, 9, 50), 0)); // Other rank: free.
    runTo(cfg_.bulkRefreshRank() + 2000);
    ASSERT_EQ(sink_.done.size(), 2u);
    EXPECT_EQ(sink_.done[0].second.dram.rank, 1);
    EXPECT_LT(sink_.done[0].first, cfg_.bulkRefreshRank() / 4);
    EXPECT_GE(sink_.done[1].first, cfg_.bulkRefreshRank());
    EXPECT_EQ(mc_.stats().bulkResets, 1u);
}

TEST_F(ControllerTest, CounterTrafficIsCountedAndServed)
{
    mc_.applyMitigation({Mitigation::Kind::CounterRead, 0, 0, 5, 60000}, 0);
    mc_.applyMitigation({Mitigation::Kind::CounterWrite, 0, 0, 5, 60000}, 0);
    runTo(2000);
    EXPECT_EQ(mc_.stats().counterReads, 1u);
    EXPECT_EQ(mc_.stats().counterWrites, 1u);
}

// Which rows each mitigation kind refreshes, pinned through
// applyMitigation at BR 1 and 2: GroundTruth clears exactly the
// footprint (nothing in a neighbouring bank, the other rank or the other
// channel) and EnergyModel books the row counts it always has. The
// footprints are written out here, not read from victimRadius().
TEST(ControllerFootprint, EachKindClearsExactlyItsRows)
{
    using K = Mitigation::Kind;
    // Sites: the target bank, a neighbouring bank, the other rank, the
    // other channel. A scope clears its leading `scope` sites.
    const int sites[4][3] = {{0, 1, 5}, {0, 1, 6}, {0, 0, 5}, {1, 1, 5}};
    enum Scope { None = 0, Rows = 1, Rank = 2, Channel = 3 };
    const struct
    {
        K kind;
        Scope scope;
        int radius[2]; ///< Victim rows per side at BR 1, BR 2.
        std::uint64_t bulkRows;
    } table[] = {
        {K::VrrRow, Rows, {1, 2}, 0},      {K::DrfmSbRow, Rows, {2, 2}, 0},
        {K::RfmSb, Rows, {1, 2}, 0},       {K::AboRfm, Rows, {1, 2}, 0},
        {K::BulkRank, Rank, {0, 0}, 2097152},
        {K::BulkChannel, Channel, {0, 0}, 4194304},
        {K::CounterRead, None, {0, 0}, 0}, {K::CounterWrite, None, {0, 0}, 0},
    };
    for (const auto &x : table) {
        for (int br = 1; br <= 2; ++br) {
            SCOPED_TRACE(testing::Message() << "kind "
                                            << static_cast<int>(x.kind)
                                            << " BR " << br);
            SysConfig cfg;
            cfg.blastRadius = br;
            GroundTruth gt(cfg);
            EnergyModel energy;
            MemController mc(cfg, 0, nullptr, &gt, &energy);
            // ACTs on rows 495..505 leave damage 2 on 496..504 per site.
            for (const auto &s : sites)
                for (int row = 495; row <= 505; ++row)
                    gt.onActivation(s[0], s[1], s[2], row);

            mc.applyMitigation({x.kind, 0, 1, 5, 500}, 0);

            const int radius = x.radius[br - 1];
            for (int i = 0; i < 4; ++i)
                for (int d = -4; d <= 4; ++d) {
                    const bool inRadius =
                        x.scope != Rows || (d != 0 && std::abs(d) <= radius);
                    EXPECT_EQ(gt.damageOf(sites[i][0], sites[i][1],
                                          sites[i][2], 500 + d),
                              i < x.scope && inRadius ? 0u : 2u)
                        << "site " << i << " row " << 500 + d;
                }
            EXPECT_EQ(energy.vrrRows(), 2u * static_cast<unsigned>(radius));
            EXPECT_EQ(energy.bulkRows(), x.bulkRows);
        }
    }
}

TEST_F(ControllerTest, WritesEventuallyDrain)
{
    for (int i = 0; i < 20; ++i) {
        Request req;
        req.dram = {0, 0, i % 8, 100 + i, 0};
        req.type = ReqType::Write;
        ASSERT_TRUE(mc_.enqueue(req, 0));
    }
    runTo(20000);
    EXPECT_EQ(mc_.stats().writes, 20u);
}

TEST_F(ControllerTest, ReadLatencyStatTracksQueueing)
{
    for (int i = 0; i < 16; ++i)
        ASSERT_TRUE(mc_.enqueue(read(0, 0, 100 + i * 7), 0));
    runTo(16 * cfg_.tRC() + 2000);
    EXPECT_EQ(mc_.stats().readLatencyCount, 16u);
    // Same-bank conflicts: average latency well above the unloaded one.
    EXPECT_GT(mc_.stats().avgReadLatency(),
              static_cast<double>(cfg_.tRC()));
}

TEST_F(ControllerTest, ReadLatencyReservoirTracksTail)
{
    // Same-bank conflict chain: latencies grow linearly, so the p99
    // sample must sit well above the median and the mean.
    for (int i = 0; i < 64; ++i)
        ASSERT_TRUE(mc_.enqueue(read(0, 0, 100 + i), 0));
    runTo(64 * cfg_.tRC() + 2000);
    const auto &res = mc_.stats().readLatency;
    ASSERT_EQ(res.seen, 64u);
    EXPECT_GT(res.percentile(0.99), res.percentile(0.5));
    EXPECT_GT(static_cast<double>(mc_.stats().p99ReadLatency()),
              mc_.stats().avgReadLatency());
}

// ---------------------------------------------------------------------
// FR-FCFS ordering invariants of the windowed pick.
// ---------------------------------------------------------------------

TEST_F(ControllerTest, RowHitPreferredOverOlderMissWithinBank)
{
    // Open row 100 in bank 0 and let the access complete.
    ASSERT_TRUE(mc_.enqueue(read(0, 0, 100, 0), 0));
    runTo(cfg_.tRC() + 500);
    ASSERT_EQ(sink_.done.size(), 1u);

    // Older request: row miss (200). Younger request: row hit (100).
    // FR-FCFS serves the hit first despite arrival order.
    ASSERT_TRUE(mc_.enqueue(read(0, 0, 200, 0), now_));
    ASSERT_TRUE(mc_.enqueue(read(0, 0, 100, 1), now_));
    runTo(now_ + 4 * cfg_.tRC());
    ASSERT_EQ(sink_.done.size(), 3u);
    EXPECT_EQ(sink_.done[1].second.dram.row, 100);
    EXPECT_EQ(sink_.done[2].second.dram.row, 200);
    EXPECT_EQ(mc_.stats().rowHits, 1u);
}

TEST_F(ControllerTest, ArrivalOrderTieBreakAcrossBanks)
{
    // Two equally-ready row misses in different banks (different bank
    // groups, so no tRRD_L coupling): the older one issues first.
    ASSERT_TRUE(mc_.enqueue(read(0, 9, 50), 0));  // Older.
    ASSERT_TRUE(mc_.enqueue(read(0, 13, 50), 0)); // Younger.
    runTo(1000);
    ASSERT_EQ(sink_.done.size(), 2u);
    EXPECT_EQ(sink_.done[0].second.dram.bank, 9);
    EXPECT_EQ(sink_.done[1].second.dram.bank, 13);
}

TEST_F(ControllerTest, CounterQueueBeatsOlderDemandRead)
{
    // A demand read enqueued strictly earlier than a counter read to a
    // different bank: the counter queue has priority and issues first.
    Request counter;
    counter.dram = {0, 0, 5, 77, 0};
    counter.type = ReqType::CounterRead;
    counter.sink = &sink_;
    ASSERT_TRUE(mc_.enqueue(read(0, 2, 60), 0));
    ASSERT_TRUE(mc_.enqueue(counter, 0));
    runTo(1000);
    ASSERT_EQ(sink_.done.size(), 2u);
    EXPECT_EQ(sink_.done[0].second.type, ReqType::CounterRead);
    EXPECT_EQ(sink_.done[1].second.type, ReqType::Read);
}

TEST_F(ControllerTest, WriteDrainHysteresisServesWriteBurstFirst)
{
    // Fill the write queue to the drain-enter threshold (3/4 of 512)
    // with reads present; write mode must latch and stay latched until
    // the queue drains to 1/8 of capacity, so at least the difference
    // completes before the first read.
    Request wr;
    wr.type = ReqType::Write;
    wr.sink = &sink_;
    for (int i = 0; i < 384; ++i) {
        wr.dram = {0, i % 2, i % 32, 100 + i / 64, 0};
        ASSERT_TRUE(mc_.enqueue(wr, 0));
    }
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(mc_.enqueue(read(0, i, 900 + i), 0));
    runTo(400000);
    std::size_t writesBeforeFirstRead = 0;
    for (const auto &[at, req] : sink_.done) {
        if (req.type == ReqType::Read)
            break;
        ++writesBeforeFirstRead;
    }
    EXPECT_GE(writesBeforeFirstRead, 384u - 64u);
    EXPECT_EQ(mc_.stats().writes, 384u);
    EXPECT_EQ(mc_.stats().reads, 4u);
}

/**
 * Seeded per-tick stimulus shared by the stress tests: bursty enqueues
 * (often concentrated on one hot bank, so a queue grows far past the
 * 48-entry scan window), writes, counter reads, and VRR / RFMsb
 * mitigations.
 */
class StressStimulus
{
  public:
    /** Draw the next tick's enqueues and mitigations. */
    void
    next()
    {
        reqs_.clear();
        mits_.clear();
        if (rnd(100) < 35) {
            const int burst = 1 + static_cast<int>(rnd(6));
            for (int i = 0; i < burst; ++i) {
                Request req;
                const bool hotBank = rnd(100) < 40;
                const int bankId =
                    hotBank ? 3 : static_cast<int>(rnd(32));
                req.dram = {0, static_cast<int>(rnd(2)), bankId,
                            static_cast<int>(rnd(8)), 0};
                const std::uint32_t kind = rnd(10);
                req.type = kind < 6   ? ReqType::Read
                           : kind < 9 ? ReqType::Write
                                      : ReqType::CounterRead;
                reqs_.push_back(req);
            }
        }
        if (rnd(1000) < 3)
            mits_.push_back({Mitigation::Kind::VrrRow, 0,
                             static_cast<int>(rnd(2)),
                             static_cast<int>(rnd(32)),
                             static_cast<int>(rnd(8))});
        if (rnd(1000) < 2)
            mits_.push_back({Mitigation::Kind::RfmSb, 0,
                             static_cast<int>(rnd(2)),
                             static_cast<int>(rnd(32)),
                             static_cast<int>(rnd(8))});
    }

    /** Apply the drawn stimulus to @p mc at @p t; reads complete to
     *  @p sink. */
    void
    feed(MemController &mc, MemSink *sink, Tick t) const
    {
        for (Request req : reqs_) {
            if (req.type == ReqType::Read)
                req.sink = sink;
            mc.enqueue(req, t); // Full queues may reject: fine.
        }
        for (const Mitigation &m : mits_)
            mc.applyMitigation(m, t);
    }

  private:
    std::uint32_t
    rnd(std::uint32_t mod)
    {
        rng_ = rng_ * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<std::uint32_t>(rng_ >> 33) % mod;
    }

    std::uint64_t rng_ = 0xDEADBEEFCAFEF00Dull;
    std::vector<Request> reqs_;
    std::vector<Mitigation> mits_;
};

constexpr Tick kStressTicks = 60000;

/**
 * Randomized stress: after every controller step the cache-backed pick
 * must equal a brute-force windowed linear scan recomputed from raw
 * bank state. With a throttling @p tracker it also covers
 * front-of-queue re-queues.
 */
void
ControllerTest::stressAgainstReference(Tracker *tracker)
{
    mc_.setTracker(tracker);
    StressStimulus stimulus;
    for (Tick t = 0; t < kStressTicks; ++t) {
        stimulus.next();
        stimulus.feed(mc_, &sink_, t);
        mc_.tick(t);
        if (t % 7 == 0) {
            ASSERT_TRUE(mc_.auditQueues(t)) << "divergence at tick " << t;
        }
    }
    // The stress must have actually exercised deep queues and service.
    EXPECT_GT(mc_.stats().reads + mc_.stats().writes, 500u);
    EXPECT_GT(mc_.stats().rowHits, 0u);
    EXPECT_GT(mc_.stats().rowMisses, 0u);
}

TEST_F(ControllerTest, PickMatchesBruteForceReferenceUnderStress)
{
    stressAgainstReference(nullptr);
}

TEST_F(ControllerTest, PickMatchesBruteForceReferenceUnderThrottleStress)
{
    HotRowThrottle throttle;
    stressAgainstReference(&throttle);
    // The re-queue path must actually have run under the audit.
    EXPECT_GT(mc_.stats().throttledActs, 0u);
}

/** What the engine contract compares: completion stream and stats. */
struct Observed
{
    std::vector<std::pair<Tick, DramAddress>> stream;
    StatDict stats;
    Tick visits = 0;
};

/**
 * Engine contract at controller level: run @p mc for kStressTicks
 * ticks, calling @p feed(t) for each tick's stimulus, with the issue
 * memo on and visited only when its watermark is due (@p event, as
 * System::run does), or with the memo off and ticked every tick. Both
 * ways must observe the same; expectSame checks it.
 */
template <typename Feed>
Observed
observe(MemController &mc, const CaptureSink &sink, bool event, Feed feed)
{
    mc.setEventScheduling(event);
    Observed out;
    for (Tick t = 0; t < kStressTicks; ++t) {
        feed(t);
        if (!event || t >= mc.nextWorkAt()) {
            mc.tick(t);
            ++out.visits;
        }
    }
    for (const auto &[at, req] : sink.done)
        out.stream.emplace_back(at, req.dram);
    StatWriter writer(out.stats);
    mc.exportStats(writer);
    return out;
}

/** @p runs: [0] event visits, [1] every tick. */
void
expectSame(const Observed (&runs)[2])
{
    EXPECT_LT(runs[0].visits, kStressTicks);
    EXPECT_TRUE(runs[0].stream == runs[1].stream);
    EXPECT_TRUE(runs[0].stats == runs[1].stats);
}

/** The random stress both ways. A throttling tracker must have
 *  delayed some ACTs. */
void
expectEventMatchesEveryTick(const SysConfig &cfg, Tracker *eventTracker,
                            Tracker *everyTracker)
{
    Observed runs[2];
    for (int every = 0; every < 2; ++every) {
        MemController mc(cfg, 0, every ? everyTracker : eventTracker,
                         nullptr, nullptr);
        CaptureSink sink;
        StressStimulus stimulus;
        runs[every] = observe(mc, sink, every == 0, [&](Tick t) {
            stimulus.next();
            stimulus.feed(mc, &sink, t);
        });
        EXPECT_GT(mc.stats().reads + mc.stats().writes, 500u);
        if (eventTracker != nullptr) {
            EXPECT_GT(mc.stats().throttledActs, 0u);
        }
    }
    expectSame(runs);
}

TEST(ControllerEngineContractTest, EventVisitsMatchEveryTick)
{
    expectEventMatchesEveryTick(SysConfig{}, nullptr, nullptr);
}

TEST(ControllerEngineContractTest, EventVisitsMatchEveryTickUnderThrottle)
{
    HotRowThrottle eventThrottle;
    HotRowThrottle everyThrottle;
    expectEventMatchesEveryTick(SysConfig{}, &eventThrottle, &everyThrottle);
}

TEST(ControllerEngineContractTest, EventVisitsMatchEveryTickShortMitigations)
{
    // With default timings every mitigation only delays queued starts,
    // so a stale issue memo would still be a safe lower bound. Here a
    // mitigation blocks for less than the tRAS + tRP an open row owes,
    // so closing the row moves a pending row miss earlier: the memo
    // must be invalidated for the two controllers to agree.
    SysConfig cfg;
    cfg.vrrNs = 1.0;
    cfg.rfmSbNs = 1.0;
    cfg.tRASns = 400.0;
    expectEventMatchesEveryTick(cfg, nullptr, nullptr);
}

/**
 * A closed-loop load: every completion is replaced, so the read queue
 * holds its depth, and request n goes to bank n mod 64 (both ranks).
 * Rows repeat for 8 visits to a bank (hit-friendly) or never
 * (miss-heavy). From depth 48 on this fills the 48-entry FR-FCFS scan
 * window, which the random stress above rarely does.
 */
struct RoundRobinLoad : CaptureSink
{
    MemController *mc = nullptr; ///< Built from a default SysConfig.
    bool missHeavy = false;
    std::uint64_t injected = 0;
    const int perRank = SysConfig().banksPerRank();
    const std::uint64_t banks = static_cast<std::uint64_t>(
        SysConfig().ranksPerChannel * perRank);

    void
    inject(Tick now)
    {
        const int bank = static_cast<int>(injected % banks);
        const std::uint64_t visit = injected / banks;
        Request req;
        req.dram = {0, bank / perRank, bank % perRank,
                    static_cast<int>(missHeavy ? visit % 4096
                                               : visit / 8 % 4),
                    0};
        req.type = ReqType::Read;
        req.sink = this;
        if (mc->enqueue(req, now))
            ++injected;
    }

    void
    memDone(const Request &req, Tick now) override
    {
        CaptureSink::memDone(req, now);
        inject(now);
    }
};

TEST(ControllerEngineContractTest, EventVisitsMatchEveryTickRoundRobin)
{
    for (const bool missHeavy : {false, true}) {
        for (const std::uint64_t depth : {48u, 128u}) {
            SCOPED_TRACE(std::to_string(depth) +
                         (missHeavy ? " miss-heavy" : " hit-friendly"));
            Observed runs[2];
            for (int every = 0; every < 2; ++every) {
                MemController mc(SysConfig{}, 0, nullptr, nullptr, nullptr);
                RoundRobinLoad load;
                load.mc = &mc;
                load.missHeavy = missHeavy;
                runs[every] = observe(mc, load, every == 0, [&](Tick t) {
                    while (t == 0 && load.injected < depth)
                        load.inject(0);
                });
                EXPECT_GT(load.done.size(), 20 * depth);
            }
            expectSame(runs);
        }
    }
}

} // namespace
} // namespace dapper
