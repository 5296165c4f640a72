/**
 * @file
 * START: Scalable Tracking for Any RowHammer Threshold (Saxena &
 * Qureshi, HPCA 2024), configured as in Section III-A of the DAPPER
 * paper: per-row counters live in DRAM with half of the LLC reserved as
 * a counter cache (the evaluated system's 8M counters exceed the 4M the
 * reserved region can hold).
 *
 * Perf-Attack surface: the reserved region halves LLC capacity for
 * benign lines, and streaming over many rows forces counter-line misses
 * that each cost DRAM counter traffic (Fig. 2b).
 */

#ifndef DAPPER_RH_START_HH
#define DAPPER_RH_START_HH

#include "src/common/zeroed_buffer.hh"
#include "src/rh/base_tracker.hh"

namespace dapper {

class Llc;

class StartTracker : public BaseTracker
{
  public:
    static constexpr int kCountersPerLine = 32; ///< 2B counters, 64B line.

    explicit StartTracker(const SysConfig &cfg);

    /** Wire the shared LLC; the System reserves half its ways for us. */
    void attachLlc(Llc *llc) { llc_ = llc; }

    void onActivation(const ActEvent &e, MitigationVec &out) override;
    void onRefreshWindow(Tick now, MitigationVec &out) override;

    void
    exportStats(StatWriter &w) const override
    {
        // Counter-cache behaviour shows up as llc.counterHits /
        // llc.counterMisses and llc.reservedWays; only the static
        // sizing is tracker-local.
        Tracker::exportStats(w);
        w.u64("countersPerLine",
              static_cast<std::uint64_t>(kCountersPerLine));
    }

    StorageEstimate storage() const override
    {
        return {4.0, 0.0}; ///< Bookkeeping only; counters use the LLC.
    }
    std::string name() const override { return "START"; }

    std::uint32_t rctCount(int channel, int rank, std::uint64_t rowId) const;

  private:
    void counterLocation(std::uint64_t rowId, int &bank, int &row) const;

    Llc *llc_ = nullptr;
    /// Per-row counters by flatRowId; page-backed, so build and window
    /// reset cost O(touched pages).
    ZeroedBuffer<std::uint16_t> rct_;
};

} // namespace dapper

#endif // DAPPER_RH_START_HH
