/**
 * @file
 * Shared helpers for concrete tracker implementations.
 */

#ifndef DAPPER_RH_BASE_TRACKER_HH
#define DAPPER_RH_BASE_TRACKER_HH

#include <algorithm>

#include "src/common/config.hh"
#include "src/common/rng.hh"
#include "src/rh/tracker.hh"

namespace dapper {

class BaseTracker : public Tracker
{
  protected:
    /**
     * Counting trackers trigger a guard band of 2 activations below
     * N_M = N_RH / 2. The ground-truth model sums damage from both
     * neighbors, so an aggressor pair each reaching exactly N_M puts a
     * victim exactly at N_RH; the band (plus the one-activation lag a
     * bit-vector "set without increment" introduces) keeps the worst
     * case strictly below the threshold. Perf impact: mitigations occur
     * ~0.8% earlier, which is negligible.
     */
    explicit BaseTracker(const SysConfig &cfg)
        : cfg_(cfg),
          nM_(std::max(2, cfg.nM() - 2)),
          rng_(cfg.seed ^ 0xda99e5u)
    {
    }

    /**
     * Victim refresh for aggressor (channel, rank, bank, row) using the
     * configured mitigation command (VRR per-bank or DRFMsb).
     */
    Mitigation
    victimRefresh(int channel, int rank, int bank, int row) const
    {
        const auto kind =
            cfg_.mitigationCmd == SysConfig::MitigationCmd::Vrr
                ? Mitigation::Kind::VrrRow
                : Mitigation::Kind::DrfmSbRow;
        return {kind, channel, rank, bank, row};
    }

    /** Flat index for per-(channel, rank) state tables. */
    int
    rankIndex(int channel, int rank) const
    {
        return channel * cfg_.ranksPerChannel + rank;
    }

    /** Flat index for per-(channel, rank, bank) state tables. */
    int
    bankIndex(int channel, int rank, int bank) const
    {
        return (channel * cfg_.ranksPerChannel + rank) *
                   cfg_.banksPerRank() + bank;
    }

    /** Row id within the rank's randomized space. */
    std::uint64_t
    rankRowId(int bank, int row) const
    {
        return static_cast<std::uint64_t>(bank) *
                   static_cast<std::uint64_t>(cfg_.rowsPerBank) + row;
    }

    /** Machine-wide row index, [channel][rank][bank][row]: the index of
     *  a per-row table that spans every rank. */
    std::uint64_t
    flatRowId(int rankIdx, std::uint64_t rowId) const
    {
        return static_cast<std::uint64_t>(rankIdx) * cfg_.rowsPerRank() +
               rowId;
    }

    void
    fromRankRowId(std::uint64_t rowId, int &bank, int &row) const
    {
        bank = static_cast<int>(rowId /
                                static_cast<std::uint64_t>(cfg_.rowsPerBank));
        row = static_cast<int>(rowId %
                               static_cast<std::uint64_t>(cfg_.rowsPerBank));
    }

    SysConfig cfg_;
    int nM_;
    Rng rng_;
};

} // namespace dapper

#endif // DAPPER_RH_BASE_TRACKER_HH
