/**
 * @file
 * Hydra: hybrid group/per-row tracking (Qureshi et al., ISCA 2022),
 * configured as in Section III-A of the DAPPER paper: 128-row group
 * counters, N_GC = 0.8 * N_M, per-row counters in a reserved DRAM region
 * (RCT) cached by a 4K-entry 32-way Row Counter Cache (RCC) with random
 * eviction.
 *
 * The Perf-Attack surface: RCC misses cost one DRAM read (fetch) plus one
 * DRAM write (evicted dirty counter), which a set-conflict access pattern
 * turns into a bandwidth drain (Fig. 2a).
 */

#ifndef DAPPER_RH_HYDRA_HH
#define DAPPER_RH_HYDRA_HH

#include <vector>

#include "src/common/zeroed_buffer.hh"
#include "src/rh/base_tracker.hh"

namespace dapper {

class HydraTracker : public BaseTracker
{
  public:
    static constexpr int kGroupSize = 128;   ///< Rows per group counter.
    static constexpr int kRccEntries = 4096; ///< Per rank.
    static constexpr int kRccWays = 32;
    static constexpr double kGcFraction = 0.8; ///< N_GC = 0.8 * N_M.

    explicit HydraTracker(const SysConfig &cfg);

    void onActivation(const ActEvent &e, MitigationVec &out) override;
    void onRefreshWindow(Tick now, MitigationVec &out) override;

    void exportStats(StatWriter &w) const override;

    StorageEstimate storage() const override;
    std::string name() const override { return "Hydra"; }

    // Introspection for tests.
    std::uint64_t rccHits() const { return rccHits_; }
    std::uint64_t rccMisses() const { return rccMisses_; }
    std::uint32_t rctCount(int channel, int rank, std::uint64_t rowId) const;
    bool groupPerRow(int channel, int rank, std::uint64_t rowId) const;

  private:
    struct RccEntry
    {
        std::uint64_t rowId = 0;
        bool valid = false;
        bool dirty = false;
    };

    struct RankState
    {
        std::vector<std::uint16_t> gct;    ///< Group counters.
        std::vector<bool> perRow;          ///< Group escalated to per-row.
        std::vector<RccEntry> rcc;         ///< sets x ways.
    };

    /** DRAM coordinates of a counter line in the reserved region. */
    void counterLocation(std::uint64_t rowId, int &bank, int &row) const;

    int rccSets_;
    int nGC_;
    std::vector<RankState> ranks_; ///< Per (channel, rank).
    /// Authoritative row counters by flatRowId; page-backed, so build
    /// and window reset cost O(touched pages).
    ZeroedBuffer<std::uint16_t> rct_;
    std::uint64_t rccHits_ = 0;
    std::uint64_t rccMisses_ = 0;
};

} // namespace dapper

#endif // DAPPER_RH_HYDRA_HH
