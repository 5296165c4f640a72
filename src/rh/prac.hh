/**
 * @file
 * PRAC: Per-Row Activation Counting with Alert Back-Off, in the style of
 * the JEDEC DDR5 PRAC extension and the secure QPRAC design (Section
 * VI-K of the DAPPER paper).
 *
 * Every activation performs an in-DRAM read-modify-write of the row's
 * counter, lengthening the effective row cycle — the constant benign tax
 * Fig. 17 shows. When a counter crosses the back-off threshold the DRAM
 * raises ALERT and the controller services the mitigation during an
 * RFM-like back-off window.
 */

#ifndef DAPPER_RH_PRAC_HH
#define DAPPER_RH_PRAC_HH

#include "src/common/zeroed_buffer.hh"
#include "src/rh/base_tracker.hh"

namespace dapper {

class PracTracker : public BaseTracker
{
  public:
    /// Extra per-ACT latency from the counter read-modify-write.
    static constexpr double kRmwNs = 4.0;

    explicit PracTracker(const SysConfig &cfg);

    void onActivation(const ActEvent &e, MitigationVec &out) override;
    void onRefreshWindow(Tick now, MitigationVec &out) override;

    Tick actExtraTicks() const override { return nsToTicks(kRmwNs); }

    void
    exportStats(StatWriter &w) const override
    {
        Tracker::exportStats(w);
        w.u64("actExtraTicks", static_cast<std::uint64_t>(actExtraTicks()));
    }

    /// Host-side cost is negligible; counters live in DRAM.
    StorageEstimate storage() const override { return {0.5, 0.0}; }
    std::string name() const override { return "PRAC"; }

    std::uint32_t counterOf(int channel, int rank, int bank, int row) const;

  private:
    /// Per-row counters by flatRowId; page-backed, so build and window
    /// reset cost O(touched pages).
    ZeroedBuffer<std::uint16_t> counters_;
};

} // namespace dapper

#endif // DAPPER_RH_PRAC_HH
