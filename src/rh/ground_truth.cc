#include "src/rh/ground_truth.hh"

#include <algorithm>
#include <limits>

#include "src/common/check.hh"

namespace dapper {

namespace {

int
log2IfPow2(int v)
{
    if (v <= 0 || (v & (v - 1)) != 0)
        return -1;
    int shift = 0;
    while ((1 << shift) < v)
        ++shift;
    return shift;
}

} // namespace

GroundTruth::GroundTruth(const SysConfig &cfg)
    : cfg_(cfg),
      rowsPerBank_(cfg.rowsPerBank),
      nRH_(static_cast<std::uint32_t>(cfg.nRH))
{
    // 8192 auto-refresh commands cover the bank each tREFW; the last
    // slice is short when sliceRows does not divide rowsPerBank (the
    // ceil keeps tail rows inside the rotation).
    sliceRows_ = std::max(1, rowsPerBank_ / 8192);
    sliceCount_ = (rowsPerBank_ + sliceRows_ - 1) / sliceRows_;
    sliceShift_ = log2IfPow2(sliceRows_);
    // Saturating 12-bit damage must still be able to reach the
    // violation threshold.
    DAPPER_CHECK(nRH_ <= kDamageCap,
                 "nRH must fit the packed 12-bit damage field");

    const std::size_t ranksTotal =
        static_cast<std::size_t>(cfg.channels) * cfg.ranksPerChannel;
    const std::size_t banksTotal = ranksTotal * cfg.banksPerRank();
    cells_.reset(banksTotal * static_cast<std::size_t>(rowsPerBank_));
    chanClear_.assign(static_cast<std::size_t>(cfg.channels), 0);
    rankClear_.assign(ranksTotal, 0);
    sliceClear_.assign(ranksTotal * static_cast<std::size_t>(sliceCount_),
                       0);
    refreshSlice_.assign(ranksTotal, 0);
}

std::uint32_t
GroundTruth::nextClearEpoch()
{
    if (epochClock_ == kStampMax)
        renormalize();
    return ++epochClock_;
}

void
GroundTruth::renormalize()
{
    // Fold every scope's clear epoch into the cells (stale -> damage 0)
    // and restart the clock at zero. O(rows) but reached only after
    // 2^20 - 1 clear events, so it never shows up in profiles.
    for (int c = 0; c < cfg_.channels; ++c) {
        for (int r = 0; r < cfg_.ranksPerChannel; ++r) {
            const std::size_t rankIdx = rankIndex(c, r);
            for (int b = 0; b < cfg_.banksPerRank(); ++b) {
                Cell *bank = &cells_[bankBase(c, r, b)];
                for (int row = 0; row < rowsPerBank_; ++row) {
                    Cell &cell = bank[row];
                    std::uint32_t d = damageOfCell(cell);
                    if (stampOfCell(cell) < clearEpochFor(c, rankIdx, row))
                        d = 0;
                    cell = makeCell(0, d);
                }
            }
        }
    }
    epochClock_ = 0;
    globalClear_ = 0;
    std::fill(chanClear_.begin(), chanClear_.end(), 0);
    std::fill(rankClear_.begin(), rankClear_.end(), 0);
    std::fill(sliceClear_.begin(), sliceClear_.end(), 0);
}

void
GroundTruth::bump(int channel, std::size_t rankIdx,
                  std::size_t bankBaseIdx, int row)
{
    if (row < 0 || row >= rowsPerBank_)
        return;
    Cell &cell = cells_[bankBaseIdx + static_cast<std::size_t>(row)];
    // stamp == epochClock_ means no scope anywhere was cleared since the
    // last write, so the cell is valid as-is; otherwise resolve against
    // the enclosing scopes' clear epochs.
    std::uint32_t d = damageOfCell(cell);
    if (stampOfCell(cell) != epochClock_ &&
        stampOfCell(cell) < clearEpochFor(channel, rankIdx, row))
        d = 0;
    if (d < kDamageCap)
        ++d;
    cell = makeCell(epochClock_, d);
    if (d > maxDamageEver_)
        maxDamageEver_ = d;
    if (d >= nRH_) {
        if (violations_ == 0) {
            firstViolation_ = current_;
            firstViolation_.row = row;
        }
        ++violations_;
    }
}

void
GroundTruth::onActivation(int channel, int rank, int bank, int row)
{
    ++activations_;
    current_ = {channel, rank, bank, row};
    const std::size_t rankIdx = rankIndex(channel, rank);
    const std::size_t base = bankBase(channel, rank, bank);
    if (row <= 0 || row + 1 >= rowsPerBank_) {
        // Edge rows are rare; take the simple one-at-a-time path.
        bump(channel, rankIdx, base, row - 1);
        bump(channel, rankIdx, base, row + 1);
        return;
    }

    // Interior fast path: apply both neighbor bumps with the scope
    // epochs resolved at most once for the pair (the two cells sit 8
    // bytes apart and usually share a refresh slice, so the per-call
    // global/channel/rank/slice lookups of bump() would be duplicates).
    // Must stay bit-equivalent to bump(row-1) then bump(row+1),
    // including firstViolation_ ordering.
    Cell &lo = cells_[base + static_cast<std::size_t>(row) - 1];
    Cell &hi = cells_[base + static_cast<std::size_t>(row) + 1];
    const std::uint32_t clk = epochClock_;
    const bool needLo = stampOfCell(lo) != clk;
    const bool needHi = stampOfCell(hi) != clk;
    std::uint32_t eLo = 0;
    std::uint32_t eHi = 0;
    if (needLo || needHi) {
        std::uint32_t e = globalClear_;
        const std::uint32_t c = chanClear_[static_cast<std::size_t>(channel)];
        if (c > e)
            e = c;
        const std::uint32_t rk = rankClear_[rankIdx];
        if (rk > e)
            e = rk;
        const std::size_t sliceBase =
            rankIdx * static_cast<std::size_t>(sliceCount_);
        const int sLo = sliceOf(row - 1);
        const int sHi = sliceOf(row + 1);
        const std::uint32_t sv =
            sliceClear_[sliceBase + static_cast<std::size_t>(sLo)];
        eLo = sv > e ? sv : e;
        if (sHi == sLo) {
            eHi = eLo;
        } else {
            const std::uint32_t sv2 =
                sliceClear_[sliceBase + static_cast<std::size_t>(sHi)];
            eHi = sv2 > e ? sv2 : e;
        }
    }
    const auto apply = [this, clk](Cell &cell, int r, bool stale) {
        std::uint32_t d = stale ? 0u : damageOfCell(cell);
        if (d < kDamageCap)
            ++d;
        cell = makeCell(clk, d);
        if (d > maxDamageEver_)
            maxDamageEver_ = d;
        if (d >= nRH_) {
            if (violations_ == 0) {
                firstViolation_ = current_;
                firstViolation_.row = r;
            }
            ++violations_;
        }
    };
    apply(lo, row - 1, needLo && stampOfCell(lo) < eLo);
    apply(hi, row + 1, needHi && stampOfCell(hi) < eHi);
}

void
GroundTruth::onMitigation(int channel, const Mitigation &m)
{
    if (m.kind == Mitigation::Kind::BulkRank)
        rankClear_[rankIndex(channel, m.rank)] = nextClearEpoch();
    else if (m.kind == Mitigation::Kind::BulkChannel)
        chanClear_[static_cast<std::size_t>(channel)] = nextClearEpoch();
    const int radius = victimRadius(m, cfg_);
    const std::size_t base = bankBase(channel, m.rank, m.bank);
    for (int d = 1; d <= radius; ++d) {
        if (m.row - d >= 0)
            cells_[base + static_cast<std::size_t>(m.row - d)] =
                makeCell(epochClock_, 0);
        if (m.row + d < rowsPerBank_)
            cells_[base + static_cast<std::size_t>(m.row + d)] =
                makeCell(epochClock_, 0);
    }
}

void
GroundTruth::onAutoRefresh(int channel, int rank)
{
    const std::size_t rankIdx = rankIndex(channel, rank);
    int &slice = refreshSlice_[rankIdx];
    sliceClear_[rankIdx * static_cast<std::size_t>(sliceCount_) +
                static_cast<std::size_t>(slice)] = nextClearEpoch();
    slice = (slice + 1) % sliceCount_;
}

void
GroundTruth::onWindowBoundary()
{
    globalClear_ = nextClearEpoch();
}

std::uint32_t
GroundTruth::damageOf(int channel, int rank, int bank, int row) const
{
    const Cell cell =
        cells_[bankBase(channel, rank, bank) +
               static_cast<std::size_t>(row)];
    if (stampOfCell(cell) <
        clearEpochFor(channel, rankIndex(channel, rank), row))
        return 0;
    return damageOfCell(cell);
}

} // namespace dapper
