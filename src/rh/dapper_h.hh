/**
 * @file
 * DAPPER-H: the paper's primary contribution (Section VI).
 *
 * Enhancements over DAPPER-S:
 *  - Double-hashing: two RGC tables with independent LLBCs; mitigation
 *    fires only when BOTH group counters reach N_M, and refreshes only
 *    the rows *shared* by the two groups (almost always just the
 *    activated row), defeating the refresh attack.
 *  - Per-bank bit-vector on Table 1: an activation from a bank whose bit
 *    is unset merely sets the bit (only Table 2 counts), so streaming
 *    activations spread over banks cannot inflate Table 1 — defeating
 *    the streaming attack. When the bit is already set, both tables
 *    count and all other banks' bits are cleared.
 *  - Novel reset: after a mitigation the involved entries reset to the
 *    maximum opposite-table count over their unrefreshed members (capped
 *    at N_M - 1) — a conservative bound that preserves safety without
 *    refreshing whole groups.
 *  - Rekeying every tREFW bounds Mapping-Capturing success to ~0.01%
 *    per window (Eq. 6-7, validated in src/analysis).
 */

#ifndef DAPPER_RH_DAPPER_H_HH
#define DAPPER_RH_DAPPER_H_HH

#include <vector>

#include "src/rh/base_tracker.hh"
#include "src/rh/llbc.hh"

namespace dapper {

class DapperHTracker : public BaseTracker
{
  public:
    /** @param useBitVector ablation hook; the paper's design has it on. */
    explicit DapperHTracker(const SysConfig &cfg, bool useBitVector = true);

    void onActivation(const ActEvent &e, MitigationVec &out) override;
    void onRefreshWindow(Tick now, MitigationVec &out) override;

    void
    exportStats(StatWriter &w) const override
    {
        Tracker::exportStats(w);
        w.u64("numGroups", numGroups_);
        w.u64("sharedRowRefreshes", sharedRowRefreshes_);
        w.u64("singleRowMitigations", singleRowMitigations_);
    }

    StorageEstimate storage() const override;
    std::string
    name() const override
    {
        return cfg_.mitigationCmd == SysConfig::MitigationCmd::Vrr
                   ? "DAPPER-H"
                   : "DAPPER-H-DRFMsb";
    }

    // Introspection for tests.
    std::uint32_t rgc1Of(int channel, int rank, std::uint64_t group) const;
    std::uint32_t rgc2Of(int channel, int rank, std::uint64_t group) const;
    std::uint64_t group1Of(int channel, int rank, int bank, int row) const;
    std::uint64_t group2Of(int channel, int rank, int bank, int row) const;
    std::uint32_t bitVectorOf(int channel, int rank,
                              std::uint64_t group) const;
    std::uint64_t numGroups() const { return numGroups_; }
    std::uint64_t sharedRowRefreshes() const { return sharedRowRefreshes_; }
    std::uint64_t singleRowMitigations() const
    {
        return singleRowMitigations_;
    }

  private:
    /**
     * Memoized decryption of one group: its member row ids and each
     * member's group index in the opposite table. Valid until rekey.
     */
    struct GroupInfo
    {
        std::vector<std::uint64_t> members;
        std::vector<std::uint32_t> oppositeGroup;
        std::uint64_t generation = ~0ULL;
    };

    struct RankState
    {
        Llbc cipher1;
        Llbc cipher2;
        std::vector<std::uint16_t> rgc1;
        std::vector<std::uint16_t> rgc2;
        std::vector<std::uint32_t> bits; ///< Per-Table-1-entry bank bits.
        /// Small direct-mapped memo of recent group decryptions (the
        /// refresh attack re-mitigates the same pairs continuously).
        static constexpr std::size_t kMemoSlots = 64;
        std::vector<std::pair<std::uint64_t, GroupInfo>> memo1;
        std::vector<std::pair<std::uint64_t, GroupInfo>> memo2;
        std::uint64_t generation = 0;
        RankState(int bitsWidth, std::uint64_t seed1, std::uint64_t seed2)
            : cipher1(bitsWidth, seed1), cipher2(bitsWidth, seed2)
        {
            memo1.resize(kMemoSlots);
            memo2.resize(kMemoSlots);
        }
    };

    const GroupInfo &groupInfo(RankState &rs, bool table1,
                               std::uint64_t group);

    void mitigate(RankState &rs, const ActEvent &e, std::uint64_t g1,
                  std::uint64_t g2, MitigationVec &out);
    void resetAll();

    bool useBitVector_;
    int rowBits_;
    int groupShift_;
    std::uint64_t numGroups_;
    std::vector<RankState> ranks_;
    std::uint64_t sharedRowRefreshes_ = 0;
    std::uint64_t singleRowMitigations_ = 0;
};

} // namespace dapper

#endif // DAPPER_RH_DAPPER_H_HH
