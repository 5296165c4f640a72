#include "src/rh/dapper_h.hh"

#include <algorithm>
#include <bit>
#include <cstring>


namespace dapper {

DapperHTracker::DapperHTracker(const SysConfig &cfg, bool useBitVector)
    : BaseTracker(cfg), useBitVector_(useBitVector)
{
    rowBits_ = std::bit_width(cfg.rowsPerRank()) - 1;
    groupShift_ =
        std::bit_width(static_cast<unsigned>(cfg.rowGroupSize)) - 1;
    numGroups_ = cfg.rowsPerRank() >> static_cast<unsigned>(groupShift_);

    const int rankCount = cfg.channels * cfg.ranksPerChannel;
    ranks_.reserve(static_cast<std::size_t>(rankCount));
    for (int r = 0; r < rankCount; ++r) {
        ranks_.emplace_back(
            rowBits_,
            mixHash64(cfg.seed + 0xa11ceULL +
                      static_cast<std::uint64_t>(r)),
            mixHash64(cfg.seed + 0xb0bULL +
                      (static_cast<std::uint64_t>(r) << 20)));
        ranks_.back().rgc1.assign(numGroups_, 0);
        ranks_.back().rgc2.assign(numGroups_, 0);
        ranks_.back().bits.assign(numGroups_, 0);
    }
}

void
DapperHTracker::resetAll()
{
    for (auto &rs : ranks_) {
        ++rs.generation; // Invalidate the group-decryption memo.
        rs.cipher1.rekey(rng_.next());
        rs.cipher2.rekey(rng_.next());
        std::memset(rs.rgc1.data(), 0,
                    rs.rgc1.size() * sizeof(std::uint16_t));
        std::memset(rs.rgc2.data(), 0,
                    rs.rgc2.size() * sizeof(std::uint16_t));
        std::memset(rs.bits.data(), 0,
                    rs.bits.size() * sizeof(std::uint32_t));
    }
}

const DapperHTracker::GroupInfo &
DapperHTracker::groupInfo(RankState &rs, bool table1, std::uint64_t group)
{
    auto &memo = table1 ? rs.memo1 : rs.memo2;
    auto &slot = memo[group % RankState::kMemoSlots];
    if (slot.second.generation == rs.generation && slot.first == group)
        return slot.second;

    // Decrypt the group's members and pre-compute each member's group
    // index in the opposite table (needed for both the shared-row scan
    // and the reset rule). Valid until the next rekey.
    const int groupSize = cfg_.rowGroupSize;
    GroupInfo &info = slot.second;
    slot.first = group;
    info.generation = rs.generation;
    info.members.resize(static_cast<std::size_t>(groupSize));
    info.oppositeGroup.resize(static_cast<std::size_t>(groupSize));
    const std::uint64_t base = group << static_cast<unsigned>(groupShift_);
    Llbc &own = table1 ? rs.cipher1 : rs.cipher2;
    Llbc &other = table1 ? rs.cipher2 : rs.cipher1;
    for (int i = 0; i < groupSize; ++i) {
        const std::uint64_t rowId =
            own.decrypt(base + static_cast<std::uint64_t>(i));
        info.members[static_cast<std::size_t>(i)] = rowId;
        info.oppositeGroup[static_cast<std::size_t>(i)] =
            static_cast<std::uint32_t>(
                other.encrypt(rowId) >> static_cast<unsigned>(groupShift_));
    }
    return info;
}

void
DapperHTracker::mitigate(RankState &rs, const ActEvent &e, std::uint64_t g1,
                         std::uint64_t g2, MitigationVec &out)
{
    const int groupSize = cfg_.rowGroupSize;
    const GroupInfo &info1 = groupInfo(rs, true, g1);
    const GroupInfo &info2 = groupInfo(rs, false, g2);

    // Shared rows are exactly the members of g2 whose Table-1 group is
    // g1 (the activated row always qualifies; additional collisions are
    // rare — the paper's 99.9% single-row observation).
    int shared = 0;
    for (int i = 0; i < groupSize; ++i) {
        if (info2.oppositeGroup[static_cast<std::size_t>(i)] != g1)
            continue;
        ++shared;
        int bank = 0;
        int row = 0;
        fromRankRowId(info2.members[static_cast<std::size_t>(i)], bank,
                      row);
        out.push_back(victimRefresh(e.channel, e.rank, bank, row));
        ++sharedRowRefreshes_;
    }
    if (shared == 1)
        ++singleRowMitigations_;
    ++mitigations_;

    // Novel reset (Fig. 8, steps 3-4): each table's entry resets to
    // the maximum count its *unrefreshed* members still hold in the
    // opposite table — a conservative per-member upper bound.
    // (Unrefreshed members of g1 are those whose Table-2 group is
    // not g2; symmetrically for g2.)
    std::uint16_t reset1 = 0;
    for (int i = 0; i < groupSize; ++i) {
        const std::uint32_t og =
            info1.oppositeGroup[static_cast<std::size_t>(i)];
        if (og == g2)
            continue; // Shared, refreshed.
        reset1 = std::max(reset1, rs.rgc2[og]);
    }
    std::uint16_t reset2 = 0;
    for (int i = 0; i < groupSize; ++i) {
        const std::uint32_t og =
            info2.oppositeGroup[static_cast<std::size_t>(i)];
        if (og == g1)
            continue; // Shared, refreshed.
        reset2 = std::max(reset2, rs.rgc1[og]);
    }
    const auto cap = static_cast<std::uint16_t>(nM_ - 1);
    rs.rgc1[g1] = std::min(reset1, cap);
    rs.rgc2[g2] = std::min(reset2, cap);
    rs.bits[g1] = 0;
}

void
DapperHTracker::onActivation(const ActEvent &e, MitigationVec &out)
{
    RankState &rs = ranks_[static_cast<std::size_t>(
        rankIndex(e.channel, e.rank))];
    const std::uint64_t rowId = rankRowId(e.bank, e.row);
    const std::uint64_t g1 =
        rs.cipher1.encrypt(rowId) >> static_cast<unsigned>(groupShift_);
    const std::uint64_t g2 =
        rs.cipher2.encrypt(rowId) >> static_cast<unsigned>(groupShift_);
    const std::uint32_t bankBit = 1u << e.bank;

    if (useBitVector_) {
        if ((rs.bits[g1] & bankBit) == 0) {
            // New bank for this group: filter the Table-1 increment.
            rs.bits[g1] |= bankBit;
            if (rs.rgc2[g2] < 0xffff)
                ++rs.rgc2[g2];
        } else {
            if (rs.rgc1[g1] < 0xffff)
                ++rs.rgc1[g1];
            rs.bits[g1] = bankBit; // Clear the other banks' bits.
            if (rs.rgc2[g2] < 0xffff)
                ++rs.rgc2[g2];
        }
    } else {
        if (rs.rgc1[g1] < 0xffff)
            ++rs.rgc1[g1];
        if (rs.rgc2[g2] < 0xffff)
            ++rs.rgc2[g2];
    }

    if (rs.rgc1[g1] >= nM_ && rs.rgc2[g2] >= nM_)
        mitigate(rs, e, g1, g2, out);
}

void
DapperHTracker::onRefreshWindow(Tick now, MitigationVec &out)
{
    (void)now;
    (void)out;
    resetAll();
}

StorageEstimate
DapperHTracker::storage() const
{
    // Per 32GB (one channel = ranksPerChannel ranks):
    //  - two RGC tables: numGroups x 1B each per rank (paper: 32KB);
    //  - bit-vector: numGroups x banksPerRank bits per rank (paper: 64KB).
    const double width = nM_ <= 255 ? 1.0 : 2.0;
    const double rgcKB = 2.0 * static_cast<double>(numGroups_) * width *
                         cfg_.ranksPerChannel / 1024.0;
    const double bitsKB = static_cast<double>(numGroups_) *
                          cfg_.banksPerRank() / 8.0 *
                          cfg_.ranksPerChannel / 1024.0;
    return {rgcKB + bitsKB, 0.0};
}

std::uint32_t
DapperHTracker::rgc1Of(int channel, int rank, std::uint64_t group) const
{
    return ranks_[static_cast<std::size_t>(rankIndex(channel, rank))]
        .rgc1[group];
}

std::uint32_t
DapperHTracker::rgc2Of(int channel, int rank, std::uint64_t group) const
{
    return ranks_[static_cast<std::size_t>(rankIndex(channel, rank))]
        .rgc2[group];
}

std::uint64_t
DapperHTracker::group1Of(int channel, int rank, int bank, int row) const
{
    const auto &rs =
        ranks_[static_cast<std::size_t>(rankIndex(channel, rank))];
    return rs.cipher1.encrypt(rankRowId(bank, row)) >>
           static_cast<unsigned>(groupShift_);
}

std::uint64_t
DapperHTracker::group2Of(int channel, int rank, int bank, int row) const
{
    const auto &rs =
        ranks_[static_cast<std::size_t>(rankIndex(channel, rank))];
    return rs.cipher2.encrypt(rankRowId(bank, row)) >>
           static_cast<unsigned>(groupShift_);
}

std::uint32_t
DapperHTracker::bitVectorOf(int channel, int rank,
                            std::uint64_t group) const
{
    return ranks_[static_cast<std::size_t>(rankIndex(channel, rank))]
        .bits[group];
}

} // namespace dapper
