/**
 * @file
 * Ground-truth RowHammer safety checker.
 *
 * Tracks, for every DRAM row, the disturbance ("damage") accumulated from
 * neighbor-row activations since the row was last refreshed by any means
 * (auto-refresh slice, victim-row refresh, bulk refresh) or since the
 * current refresh window began. Following the paper's threat model
 * (Section II-C: "an attack succeeds if any DRAM row exceeds the RH
 * threshold within tREFW"), damage is scoped to a tREFW window — the
 * same convention under which N_M = N_RH / 2 plus a per-window structure
 * reset is a sound design, used by Hydra, CoMeT and DAPPER alike. A
 * tracker is RowHammer-safe iff no row's damage reaches N_RH within any
 * window. Integration and property tests assert this invariant under the
 * paper's attack patterns.
 *
 * Implementation: epoch-stamped cells. Every row stores (damage, stamp)
 * and every refresh scope — the whole model (window boundary), a channel
 * (bulk channel refresh), a rank (bulk rank refresh), and each
 * auto-refresh slice of a rank — records the epoch at which it was last
 * cleared. A cell's damage counts only if its stamp is at least every
 * enclosing scope's clear epoch; otherwise it is stale and reads as
 * zero, resolved lazily on the next bump or damageOf. This makes all
 * refresh paths O(1) epoch bumps instead of dense row sweeps — see
 * src/rh/README.md for the full contract, and DenseGroundTruth
 * (tests/oracle/) for the dense reference model the differential test
 * pins this against.
 */

#ifndef DAPPER_RH_GROUND_TRUTH_HH
#define DAPPER_RH_GROUND_TRUTH_HH

#include <cstdint>
#include <vector>

#include "src/common/config.hh"
#include "src/common/stats.hh"
#include "src/common/zeroed_buffer.hh"
#include "src/rh/tracker.hh"

namespace dapper {

class GroundTruth
{
  public:
    explicit GroundTruth(const SysConfig &cfg);

    /** Aggressor row activated: neighbors accumulate damage. */
    void onActivation(int channel, int rank, int bank, int row);

    /**
     * Hint that (channel, rank, bank, row) is about to activate: pull
     * the neighbor-row cells toward the cache before onActivation reads
     * them. The cell array spans tens of MB, so bump()'s cell loads are
     * the event engine's dominant cache misses; issuing this at the top
     * of MemController::issue lets the timing bookkeeping in between
     * hide part of that latency. Pure perf hint — no observable effect.
     */
    void
    prefetchActivation(int channel, int rank, int bank, int row) const
    {
        if (row <= 0 || row + 1 >= rowsPerBank_)
            return; // Edge rows: rare, not worth per-neighbor branches.
        const Cell *base = &cells_[bankBase(channel, rank, bank)];
        __builtin_prefetch(base + (row - 1), 1);
        __builtin_prefetch(base + (row + 1), 1);
        // The slice-clear entry the bump pair will consult (one line
        // covers 16 slices, spanning both neighbors' slices).
        const std::size_t rankIdx = rankIndex(channel, rank);
        __builtin_prefetch(
            &sliceClear_[rankIdx * static_cast<std::size_t>(sliceCount_) +
                         static_cast<std::size_t>(sliceOf(row))]);
    }

    /**
     * Mitigation @p m was applied on @p channel: clear victimRadius(m)
     * rows each side of its row (this model's tracker-adjusted config),
     * or its whole rank / channel for BulkRank / BulkChannel.
     */
    void onMitigation(int channel, const Mitigation &m);

    /** Auto-refresh: the rank's next slice of rows in every bank. */
    void onAutoRefresh(int channel, int rank);

    /** tREFW boundary: damage accounting is per-window (Section II-C). */
    void onWindowBoundary();

    /** Highest damage any row ever reached. */
    std::uint32_t maxDamageEver() const { return maxDamageEver_; }

    /** Number of damage increments that reached nRH (bit-flip events). */
    std::uint64_t violations() const { return violations_; }

    /** Location of the first violation (valid if violations() > 0). */
    struct Location
    {
        int channel = -1;
        int rank = -1;
        int bank = -1;
        int row = -1;
    };
    const Location &firstViolation() const { return firstViolation_; }

    std::uint64_t activations() const { return activations_; }

    /**
     * Damage saturates at kDamageCap (12 bits; see the Cell packing
     * below). The constructor checks nRH fits, so violation detection
     * is unaffected; the dense reference model mirrors the cap so the
     * differential stays exact.
     */
    static constexpr std::uint32_t kDamageBits = 12;
    static constexpr std::uint32_t kDamageCap = (1u << kDamageBits) - 1;

    /** Current damage of one row (tests). */
    std::uint32_t damageOf(int channel, int rank, int bank, int row) const;

    /** Rows refreshed per auto-refresh command per bank. */
    int sliceRows() const { return sliceRows_; }

    /** Auto-refresh commands needed to sweep a whole bank (ceil). */
    int sliceCount() const { return sliceCount_; }

    /** Telemetry under the caller's prefix (System: "gt."). */
    void
    exportStats(StatWriter &w) const
    {
        w.u64("maxDamage", maxDamageEver_);
        w.u64("violations", violations_);
        w.u64("activations", activations_);
        w.u64("sliceRows", static_cast<std::uint64_t>(sliceRows_));
        w.u64("sliceCount", static_cast<std::uint64_t>(sliceCount_));
    }

  private:
    /**
     * Per-row cell: damage in the low kDamageBits, last-write epoch
     * stamp in the high 20. Packing halves the cell-array cache traffic
     * of onActivation — the event engine's dominant miss source. Every
     * recorded bench tops out near damage 400, and the epoch clock
     * renormalizes before exceeding 20 bits (~1M clear events —
     * thousands of tREFW windows).
     */
    static constexpr std::uint32_t kStampMax =
        (1u << (32 - kDamageBits)) - 1;
    using Cell = std::uint32_t;

    static std::uint32_t damageOfCell(Cell c) { return c & kDamageCap; }
    static std::uint32_t stampOfCell(Cell c) { return c >> kDamageBits; }
    static Cell
    makeCell(std::uint32_t stamp, std::uint32_t damage)
    {
        return (stamp << kDamageBits) | damage;
    }

    std::size_t
    bankBase(int channel, int rank, int bank) const
    {
        const std::size_t banksTotal =
            static_cast<std::size_t>(cfg_.ranksPerChannel) *
            cfg_.banksPerRank();
        return (static_cast<std::size_t>(channel) * banksTotal +
                static_cast<std::size_t>(rank) * cfg_.banksPerRank() +
                static_cast<std::size_t>(bank)) *
               static_cast<std::size_t>(rowsPerBank_);
    }

    std::size_t
    rankIndex(int channel, int rank) const
    {
        return static_cast<std::size_t>(channel) * cfg_.ranksPerChannel +
               rank;
    }

    int
    sliceOf(int row) const
    {
        return sliceShift_ >= 0 ? row >> sliceShift_ : row / sliceRows_;
    }

    /**
     * Smallest stamp still valid for (channel, rank, row): the max clear
     * epoch over the scopes enclosing that row.
     */
    std::uint32_t
    clearEpochFor(int channel, std::size_t rankIdx, int row) const
    {
        std::uint32_t e = globalClear_;
        const std::uint32_t c =
            chanClear_[static_cast<std::size_t>(channel)];
        if (c > e)
            e = c;
        const std::uint32_t r = rankClear_[rankIdx];
        if (r > e)
            e = r;
        const std::uint32_t s =
            sliceClear_[rankIdx * static_cast<std::size_t>(sliceCount_) +
                        static_cast<std::size_t>(sliceOf(row))];
        return s > e ? s : e;
    }

    /** Allot a fresh clear epoch (renormalizing near wrap-around). */
    std::uint32_t nextClearEpoch();

    /** Resolve every cell and reset all epochs to zero (rare). */
    void renormalize();

    void bump(int channel, std::size_t rankIdx, std::size_t bankBaseIdx,
              int row);

    const SysConfig cfg_;
    int rowsPerBank_;
    std::uint32_t nRH_;
    int sliceRows_;  ///< rows refreshed per REF per bank
    int sliceCount_; ///< ceil(rowsPerBank / sliceRows): REFs per sweep
    int sliceShift_; ///< log2(sliceRows) when a power of two, else -1

    /// Flat [channel][rank][bank][row] damage cells. Page-backed:
    /// construction is O(1) and untouched banks stay unmapped (a System
    /// is built per scenario run, so eager zeroing shows up in bench
    /// profiles).
    ZeroedBuffer<Cell> cells_;

    /// Epoch clock: clears take ++epochClock_, writes stamp epochClock_.
    std::uint32_t epochClock_ = 0;
    std::uint32_t globalClear_ = 0;       ///< window boundary
    std::vector<std::uint32_t> chanClear_; ///< bulk channel refresh
    std::vector<std::uint32_t> rankClear_; ///< bulk rank refresh
    /// [rankIndex][slice]: auto-refresh slice clears.
    std::vector<std::uint32_t> sliceClear_;
    std::vector<int> refreshSlice_; ///< per (channel,rank) rotating pointer

    std::uint32_t maxDamageEver_ = 0;
    std::uint64_t violations_ = 0;
    std::uint64_t activations_ = 0;
    Location firstViolation_;
    Location current_; ///< Coordinates of the activation being applied.
};

} // namespace dapper

#endif // DAPPER_RH_GROUND_TRUTH_HH
