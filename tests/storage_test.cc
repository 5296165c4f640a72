/**
 * @file
 * Storage primitives: ZeroedBuffer (page-backed, lazily zero-filled,
 * clear() by dropping pages) and RingDeque over uninitialized storage,
 * the latter against a std::deque reference under a seeded random mix
 * of the operations the memory controller uses.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <deque>
#include <limits>
#include <utility>

#include "src/common/arena.hh"
#include "src/common/rng.hh"
#include "src/common/zeroed_buffer.hh"
#include "src/mem/request.hh"

namespace dapper {
namespace {

template <typename T>
bool
allZero(const ZeroedBuffer<T> &b)
{
    for (std::size_t i = 0; i < b.size(); ++i)
        if (b[i] != T{})
            return false;
    return true;
}

TEST(ZeroedBuffer, ReadsZeroOnConstruction)
{
    ZeroedBuffer<std::uint32_t> b(100000);
    EXPECT_EQ(b.size(), 100000u);
    EXPECT_TRUE(allZero(b));
}

TEST(ZeroedBuffer, ClearZeroesWrittenElementsRepeatedly)
{
    // Three pages and a bit: first, middle and last index land on
    // different pages, and the last page is partly outside the table.
    const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const std::size_t n = 3 * page / sizeof(std::uint16_t) + 5;
    ZeroedBuffer<std::uint16_t> b(n);
    for (int round = 0; round < 2; ++round) {
        b[0] = 1;
        b[n / 2] = 2;
        b[n - 1] = 3;
        EXPECT_EQ(b[0], 1u);
        EXPECT_EQ(b[n / 2], 2u);
        EXPECT_EQ(b[n - 1], 3u);
        b.clear();
        EXPECT_EQ(b.size(), n);
        EXPECT_TRUE(allZero(b)) << "round " << round;
    }
}

TEST(ZeroedBuffer, EmptyAndOddSizesWork)
{
    ZeroedBuffer<std::uint64_t> none;
    EXPECT_EQ(none.size(), 0u);
    none.clear();
    ZeroedBuffer<std::uint64_t> zero(0);
    EXPECT_EQ(zero.size(), 0u);
    zero.clear();

    // One byte past a page, and a single element.
    const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    ZeroedBuffer<std::uint8_t> odd(page + 1);
    odd[page] = 0xff;
    odd.clear();
    EXPECT_EQ(odd.size(), page + 1);
    EXPECT_TRUE(allZero(odd));
    ZeroedBuffer<std::uint8_t> one(1);
    one[0] = 7;
    one.clear();
    EXPECT_EQ(one[0], 0u);
}

TEST(ZeroedBuffer, ResetRemapsZeroed)
{
    ZeroedBuffer<std::uint32_t> b(64);
    b[63] = 9;
    b.reset(128);
    EXPECT_EQ(b.size(), 128u);
    EXPECT_TRUE(allZero(b));
}

TEST(ZeroedBuffer, MoveLeavesSourceEmpty)
{
    ZeroedBuffer<std::uint32_t> a(1000);
    a[999] = 42;
    ZeroedBuffer<std::uint32_t> b(std::move(a));
    EXPECT_EQ(a.size(), 0u);
    ASSERT_EQ(b.size(), 1000u);
    EXPECT_EQ(b[999], 42u);

    ZeroedBuffer<std::uint32_t> c(10);
    c = std::move(b);
    EXPECT_EQ(b.size(), 0u);
    ASSERT_EQ(c.size(), 1000u);
    EXPECT_EQ(c[999], 42u);
    a.clear(); // an emptied source stays usable
}

TEST(ZeroedBufferDeathTest, SizeOverflowFailsCheck)
{
    const std::size_t n =
        std::numeric_limits<std::size_t>::max() / sizeof(std::uint64_t) + 1;
    EXPECT_DEATH((void)ZeroedBuffer<std::uint64_t>(n), "overflows size_t");
}

Request
makeRequest(std::uint32_t id, Rng &rng)
{
    Request r;
    r.dram.bank = static_cast<std::int32_t>(rng.below(32));
    r.dram.row = static_cast<std::int32_t>(rng.below(65536));
    r.type = static_cast<ReqType>(rng.below(4));
    r.coreId = static_cast<std::int32_t>(rng.below(4));
    r.enqueuedAt = static_cast<Tick>(rng.next() >> 16);
    r.tag = id;
    r.lineAddr = rng.next();
    return r;
}

bool
same(const Request &a, const Request &b)
{
    return a.dram == b.dram && a.type == b.type && a.coreId == b.coreId &&
           a.enqueuedAt == b.enqueuedAt && a.sink == b.sink &&
           a.tag == b.tag && a.lineAddr == b.lineAddr;
}

TEST(RingDeque, MatchesStdDequeUnderRandomOps)
{
    Rng rng(20240617);
    RingDeque<Request> ring(48);
    const std::size_t cap = ring.capacity();
    ASSERT_GE(cap, 48u);
    std::deque<Request> ref;

    std::uint32_t nextId = 0;
    std::size_t popFronts = 0;
    std::size_t pushFronts = 0;
    bool sawFull = false;
    for (int op = 0; op < 40000; ++op) {
        // Alternate fill- and drain-biased phases so the ring runs
        // both full and empty.
        const bool filling = (op / 700) % 2 == 0;
        const std::uint64_t pick = rng.below(100);
        const std::uint64_t pushShare = filling ? 65 : 35;
        if (pick < pushShare && ref.size() < cap) {
            const Request r = makeRequest(nextId++, rng);
            if (rng.below(8) == 0) {
                ring.push_front(r);
                ref.push_front(r);
                ++pushFronts;
            } else {
                ring.push_back(r);
                ref.push_back(r);
            }
        } else if (!ref.empty()) {
            if (rng.below(3) == 0) {
                const std::size_t pos = rng.below(ref.size());
                ring.erase(pos);
                ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(pos));
                if (pos < ref.size()) {
                    ASSERT_TRUE(same(ring[pos], ref[pos])) << "op " << op;
                }
            } else {
                ring.pop_front();
                ref.pop_front();
                ++popFronts;
            }
        }
        sawFull = sawFull || ref.size() == cap;

        ASSERT_EQ(ring.size(), ref.size()) << "op " << op;
        ASSERT_EQ(ring.empty(), ref.empty());
        if (!ref.empty()) {
            ASSERT_TRUE(same(ring.front(), ref.front())) << "op " << op;
            ASSERT_TRUE(same(ring.back(), ref.back())) << "op " << op;
        }
        if (op % 97 == 0) {
            for (std::size_t i = 0; i < ref.size(); ++i)
                ASSERT_TRUE(same(ring[i], ref[i]))
                    << "op " << op << " i " << i;
        }
    }
    // The head only advances on pop_front (and front-side erases) and
    // retreats on push_front, so this many net pops means the head
    // went round the whole ring at least three times.
    EXPECT_GE(popFronts, pushFronts + 3 * cap);
    EXPECT_TRUE(sawFull);
}

} // namespace
} // namespace dapper
