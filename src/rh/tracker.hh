/**
 * @file
 * Common interface for host-side RowHammer trackers.
 *
 * The memory controller notifies the tracker of every row activation
 * (ACT). The tracker responds with zero or more mitigation actions:
 * victim-row refreshes (VRR / DRFMsb), same-bank RFM commands, bulk
 * "refresh all rows" structure resets (CoMeT / ABACUS early reset), or
 * injected DRAM counter traffic (Hydra / START counter fetch + update).
 * Trackers may additionally tax every activation (PRAC read-modify-write)
 * or throttle specific activations (BlockHammer).
 */

#ifndef DAPPER_RH_TRACKER_HH
#define DAPPER_RH_TRACKER_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/config.hh"
#include "src/common/stats.hh"
#include "src/common/types.hh"

namespace dapper {

/** A row activation observed by the memory controller. */
struct ActEvent
{
    std::int32_t channel = 0;
    std::int32_t rank = 0;
    std::int32_t bank = 0; ///< Flat bank id within the rank.
    std::int32_t row = 0;
    Tick now = 0;
    std::int32_t coreId = -1;
};

/** One mitigation action requested by a tracker. */
struct Mitigation
{
    enum class Kind
    {
        VrrRow,       ///< Refresh victims of (rank,bank,row); blocks bank.
        DrfmSbRow,    ///< Same, via DRFMsb; blocks bank# across all groups.
        RfmSb,        ///< Same-bank RFM (PrIDE); refreshes victims too.
        AboRfm,       ///< PRAC Alert Back-Off; blocks all banks in channel.
        BulkRank,     ///< Refresh every row in the rank (structure reset).
        BulkChannel,  ///< Refresh every row in the channel.
        CounterRead,  ///< Fetch an RH counter from DRAM (injected read).
        CounterWrite, ///< Write back an RH counter to DRAM.
    };

    Kind kind;
    std::int32_t channel = 0;
    std::int32_t rank = 0;
    std::int32_t bank = 0;
    std::int32_t row = 0;
};

/**
 * Victim rows @p m refreshes on each side of (rank, bank, row); 0 for
 * bulk resets (whole rank / channel) and counter traffic (nothing).
 * GroundTruth::onMitigation and the controller's energy count use it.
 */
inline int
victimRadius(const Mitigation &m, const SysConfig &cfg)
{
    switch (m.kind) {
      case Mitigation::Kind::VrrRow:
      case Mitigation::Kind::RfmSb:
      case Mitigation::Kind::AboRfm:
        return cfg.blastRadius;
      case Mitigation::Kind::DrfmSbRow:
        return std::max(2, cfg.blastRadius);
      case Mitigation::Kind::BulkRank:
      case Mitigation::Kind::BulkChannel:
      case Mitigation::Kind::CounterRead:
      case Mitigation::Kind::CounterWrite:
        break;
    }
    return 0;
}

using MitigationVec = std::vector<Mitigation>;

/** SRAM / CAM cost estimate for Table III. */
struct StorageEstimate
{
    double sramKB = 0.0;
    double camKB = 0.0;
    /// Die area from prior-work scaling: ~0.00078 mm^2/KB SRAM, 2x for CAM.
    double
    areaMm2() const
    {
        return sramKB * 0.00078 + camKB * 0.00186;
    }
};

/**
 * Abstract host-side RowHammer tracker.
 *
 * One tracker object serves the whole system; per-channel / per-rank
 * structures are indexed internally from the ActEvent coordinates.
 */
class Tracker
{
  public:
    virtual ~Tracker() = default;

    /** Observe an ACT; append mitigation actions to @p out. */
    virtual void onActivation(const ActEvent &event, MitigationVec &out) = 0;

    /**
     * Called by the system once per tREFW boundary (structures that reset
     * on the refresh window: DAPPER tables, Hydra counters, ABACUS MG).
     * May emit actions (none of the implemented trackers need to).
     */
    virtual void onRefreshWindow(Tick now, MitigationVec &out)
    {
        (void)now;
        (void)out;
    }

    /**
     * Periodic hook driven by the controller clock for trackers with
     * sub-tREFW periods (CoMeT tREFW/3 reset, DAPPER-S treset, PrIDE RFM
     * cadence). System calls it every max(1, tREFI / 4) ticks; the
     * controller never calls it.
     */
    virtual void onPeriodic(Tick now, MitigationVec &out)
    {
        (void)now;
        (void)out;
    }

    /** Extra per-ACT latency added to the bank cycle (PRAC RMW). */
    virtual Tick actExtraTicks() const { return 0; }

    /**
     * Throttle hook (BlockHammer): earliest Tick at which the given
     * activation may issue; return 0 for "no restriction".
     */
    virtual Tick throttleUntil(const ActEvent &event)
    {
        (void)event;
        return 0;
    }

    /** Storage cost per 32GB memory (Table III). */
    virtual StorageEstimate storage() const = 0;

    virtual std::string name() const = 0;

    /** Total mitigative refreshes issued (for stats / energy). */
    std::uint64_t mitigations() const { return mitigations_; }

    /**
     * Publish telemetry under the caller's prefix (System exports every
     * tracker under "tracker."). The base implementation emits the
     * mitigation count and the Table-III storage estimate; overrides
     * must call it first, then append tracker-specific internals (table
     * occupancy, cache hit rates, reset counts) — *appending* keeps the
     * shared leading layout stable across trackers. Export order must
     * be deterministic: fixed sequences only, no map iteration.
     */
    virtual void
    exportStats(StatWriter &w) const
    {
        w.u64("mitigations", mitigations_);
        const StorageEstimate est = storage();
        const StatWriter s = w.scope("storage");
        s.f64("sramKB", est.sramKB);
        s.f64("camKB", est.camKB);
        s.f64("areaMm2", est.areaMm2());
    }

  protected:
    /** Mitigation count; concrete trackers increment on each action. */
    std::uint64_t mitigations_ = 0;
};

} // namespace dapper

#endif // DAPPER_RH_TRACKER_HH
