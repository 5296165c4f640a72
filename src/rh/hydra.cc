#include "src/rh/hydra.hh"

#include <algorithm>
#include <cstring>

namespace dapper {

HydraTracker::HydraTracker(const SysConfig &cfg) : BaseTracker(cfg)
{
    rccSets_ = kRccEntries / kRccWays;
    nGC_ = std::max(1, static_cast<int>(kGcFraction * nM_));

    const std::uint64_t groups = cfg.rowsPerRank() / kGroupSize;
    ranks_.resize(static_cast<std::size_t>(cfg.channels) *
                  cfg.ranksPerChannel);
    for (auto &rs : ranks_) {
        rs.gct.assign(groups, 0);
        rs.perRow.assign(groups, false);
        rs.rcc.assign(static_cast<std::size_t>(rccSets_) * kRccWays,
                      RccEntry{});
    }
    rct_.reset(ranks_.size() * cfg.rowsPerRank());
}

void
HydraTracker::counterLocation(std::uint64_t rowId, int &bank, int &row) const
{
    // Reserved region: the top rows of each bank hold the RCT. 32 row
    // counters per cache line; spread lines over banks then rows.
    const std::uint64_t line = rowId / 32;
    bank = static_cast<int>(line % static_cast<std::uint64_t>(
                                       cfg_.banksPerRank()));
    const int reservedRows = 64;
    row = cfg_.rowsPerBank - 1 -
          static_cast<int>((line / static_cast<std::uint64_t>(
                                       cfg_.banksPerRank())) %
                           static_cast<std::uint64_t>(reservedRows));
}

void
HydraTracker::onActivation(const ActEvent &e, MitigationVec &out)
{
    const int ri = rankIndex(e.channel, e.rank);
    RankState &rs = ranks_[static_cast<std::size_t>(ri)];
    const std::uint64_t rowId = rankRowId(e.bank, e.row);
    const std::uint64_t group = rowId / kGroupSize;

    if (!rs.perRow[group]) {
        if (++rs.gct[group] < nGC_)
            return;
        // Escalate to per-row tracking; rows start at the group count
        // (conservative: any row may have contributed all of it).
        rs.perRow[group] = true;
        const std::uint64_t base = flatRowId(ri, group * kGroupSize);
        for (int i = 0; i < kGroupSize; ++i)
            rct_[base + static_cast<std::uint64_t>(i)] =
                static_cast<std::uint16_t>(nGC_);
    }

    // Per-row path through the RCC.
    const int set = static_cast<int>(rowId %
                                     static_cast<std::uint64_t>(rccSets_));
    RccEntry *base = &rs.rcc[static_cast<std::size_t>(set) * kRccWays];
    RccEntry *entry = nullptr;
    for (int w = 0; w < kRccWays; ++w) {
        if (base[w].valid && base[w].rowId == rowId) {
            entry = &base[w];
            break;
        }
    }

    if (entry != nullptr) {
        ++rccHits_;
    } else {
        ++rccMisses_;
        // Random eviction; dirty victim writes back, new counter fetched.
        RccEntry *victim = nullptr;
        for (int w = 0; w < kRccWays; ++w) {
            if (!base[w].valid) {
                victim = &base[w];
                break;
            }
        }
        if (victim == nullptr)
            victim = &base[rng_.below(kRccWays)];

        int cBank = 0;
        int cRow = 0;
        if (victim->valid && victim->dirty) {
            counterLocation(victim->rowId, cBank, cRow);
            out.push_back({Mitigation::Kind::CounterWrite, e.channel,
                           e.rank, cBank, cRow});
        }
        counterLocation(rowId, cBank, cRow);
        out.push_back(
            {Mitigation::Kind::CounterRead, e.channel, e.rank, cBank, cRow});
        victim->rowId = rowId;
        victim->valid = true;
        victim->dirty = false;
        entry = victim;
    }

    entry->dirty = true;
    auto &cnt = rct_[flatRowId(ri, rowId)];
    if (++cnt >= nM_) {
        out.push_back(victimRefresh(e.channel, e.rank, e.bank, e.row));
        cnt = 0;
        ++mitigations_;
    }
}

void
HydraTracker::onRefreshWindow(Tick now, MitigationVec &out)
{
    (void)now;
    (void)out;
    for (auto &rs : ranks_) {
        std::memset(rs.gct.data(), 0,
                    rs.gct.size() * sizeof(std::uint16_t));
        std::fill(rs.perRow.begin(), rs.perRow.end(), false);
        for (auto &entry : rs.rcc)
            entry = RccEntry{};
    }
    rct_.clear();
}

StorageEstimate
HydraTracker::storage() const
{
    // Per 32GB (one channel: 2 ranks). GCT: rowsPerRank/128 x 2B; RCC:
    // 4K x (tag ~21b + count 16b ~ 5B).
    const double gctKB = static_cast<double>(cfg_.rowsPerRank()) /
                         kGroupSize * 2.0 / 1024.0 * cfg_.ranksPerChannel;
    const double rccKB =
        kRccEntries * 5.0 / 1024.0 * cfg_.ranksPerChannel;
    return {gctKB + rccKB, 0.0};
}

std::uint32_t
HydraTracker::rctCount(int channel, int rank, std::uint64_t rowId) const
{
    return rct_[flatRowId(rankIndex(channel, rank), rowId)];
}

bool
HydraTracker::groupPerRow(int channel, int rank, std::uint64_t rowId) const
{
    return ranks_[static_cast<std::size_t>(rankIndex(channel, rank))]
        .perRow[rowId / kGroupSize];
}

void
HydraTracker::exportStats(StatWriter &w) const
{
    Tracker::exportStats(w);
    w.u64("rccHits", rccHits_);
    w.u64("rccMisses", rccMisses_);
    std::uint64_t rccOccupancy = 0;
    std::uint64_t perRowGroups = 0;
    for (const RankState &rs : ranks_) {
        for (const RccEntry &e : rs.rcc)
            rccOccupancy += e.valid ? 1 : 0;
        for (const bool escalated : rs.perRow)
            perRowGroups += escalated ? 1 : 0;
    }
    w.u64("rccOccupancy", rccOccupancy);
    w.u64("perRowGroups", perRowGroups);
}

} // namespace dapper
