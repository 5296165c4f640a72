/**
 * @file
 * System configuration for the simulated machine and the RowHammer
 * defenses, mirroring Table I of the DAPPER paper (HPCA 2025).
 *
 * All durations are specified in nanoseconds / milliseconds and converted
 * to core cycles (Tick, 4 GHz) by derived accessors. @c timeScale
 * shrinks the refresh window so that multi-tREFW experiments stay
 * tractable. It divides tREFW, tREFI, tRFC, the tracker reset periods
 * and the bulk-refresh penalties. It does not divide the per-command
 * timings (tRCD, tRP, tRAS, tRC, tBL, tFAW, the VRR / RFMsb / DRFMsb
 * mitigation commands) or nRH. A scaled window therefore holds about
 * @c timeScale times fewer activations against the same threshold, so
 * trackers reach nRH and act less often per window at larger scales:
 * the paper's overhead ratios are not preserved. At 1024, tREFI is
 * shorter than tRC.
 */

#ifndef DAPPER_COMMON_CONFIG_HH
#define DAPPER_COMMON_CONFIG_HH

#include <cstdint>
#include <string>

#include "src/common/types.hh"

namespace dapper {

/**
 * Full system configuration (processor, memory organization, DRAM timing,
 * and RowHammer-defense parameters).
 */
struct SysConfig
{
    // ------------------------------------------------------------------
    // Processor (Table I)
    // ------------------------------------------------------------------
    int numCores = 4;           ///< Out-of-order cores.
    int coreWidth = 4;          ///< Issue/retire width.
    int robEntries = 128;       ///< Instruction window size.
    int coreMshrs = 16;         ///< Outstanding misses per core.

    // ------------------------------------------------------------------
    // Shared last-level cache (Table I)
    // ------------------------------------------------------------------
    std::uint64_t llcBytes = 8ULL << 20; ///< 8 MB shared LLC.
    int llcWays = 16;                    ///< Associativity.
    int lineBytes = 64;                  ///< Cache line size.
    Tick llcHitLatency = 20;             ///< Hit latency in core cycles.

    // ------------------------------------------------------------------
    // Memory organization (Table I): 4 banks x 8 groups x 2 ranks x 2 ch
    // ------------------------------------------------------------------
    int channels = 2;
    int ranksPerChannel = 2;
    int bankGroups = 8;
    int banksPerGroup = 4;
    int rowsPerBank = 64 * 1024;
    int rowBytes = 8192;

    // ------------------------------------------------------------------
    // DRAM timing, DDR5-6400 (Table I), in nanoseconds
    // ------------------------------------------------------------------
    double tRCDns = 16.0;
    double tRPns = 16.0;
    double tCLns = 16.0;
    double tRCns = 48.0;
    double tRASns = 32.0;
    double tRRDSns = 2.5;   ///< ACT-to-ACT, different bank group.
    double tRRDLns = 5.0;   ///< ACT-to-ACT, same bank group.
    double tWRns = 12.0;
    double tRFCns = 295.0;
    double tREFIns = 3900.0;
    double tBLns = 2.5;     ///< 64B burst occupancy on the data bus.
    double tFAWns = 13.333; ///< Four-activation window.
    double tREFWms = 32.0;  ///< Refresh window (before timeScale).

    /**
     * Window scaling factor. Divides tREFW, tREFI, tRFC, tracker reset
     * periods and bulk-refresh penalties; per-command timings and nRH
     * stay physical (see the file comment for what that changes).
     */
    double timeScale = 16.0;

    // ------------------------------------------------------------------
    // Mitigative-refresh command costs (Section IV / VI-G)
    // ------------------------------------------------------------------
    double vrrNs = 100.0;     ///< Victim-Row-Refresh: blocks one bank (BR1).
    double rfmSbNs = 190.0;   ///< Same-bank RFM: blocks bank# in all groups.
    double drfmSbNs = 240.0;  ///< Same-bank DRFM (BR2 capable).
    double bulkRefreshRankMs = 2.4;    ///< CoMeT "refresh all rows" reset.
    double bulkRefreshChannelMs = 2.0; ///< ABACUS channel-wide reset.
    int blastRadius = 1;      ///< Victim rows refreshed each side (BR).

    /// Mitigation command flavour used by trackers that refresh victims.
    enum class MitigationCmd { Vrr, DrfmSb };
    MitigationCmd mitigationCmd = MitigationCmd::Vrr;

    // ------------------------------------------------------------------
    // RowHammer defense parameters
    // ------------------------------------------------------------------
    int nRH = 500;            ///< RowHammer threshold.
    int rowGroupSize = 256;   ///< DAPPER rows per Row Group Counter.
    double dapperSResetUs = 0.0; ///< DAPPER-S treset; 0 => one tREFW.

    std::uint64_t seed = 1;   ///< Master seed for all randomness.

    // ------------------------------------------------------------------
    // Derived quantities
    // ------------------------------------------------------------------
    int banksPerRank() const { return bankGroups * banksPerGroup; }
    int banksPerChannel() const { return banksPerRank() * ranksPerChannel; }

    /// Rows in one rank; the DAPPER randomized address space (2M default).
    std::uint64_t
    rowsPerRank() const
    {
        return static_cast<std::uint64_t>(rowsPerBank) * banksPerRank();
    }

    std::uint64_t
    bytesPerRank() const
    {
        return rowsPerRank() * static_cast<std::uint64_t>(rowBytes);
    }

    std::uint64_t
    totalBytes() const
    {
        return bytesPerRank() * ranksPerChannel * channels;
    }

    int linesPerRow() const { return rowBytes / lineBytes; }
    /// Shared LLC MSHRs: four per core MSHR.
    int llcMshrs() const { return numCores * coreMshrs * 4; }
    int llcSets() const
    {
        return static_cast<int>(llcBytes /
                                (static_cast<unsigned>(llcWays) * lineBytes));
    }

    /// Mitigation threshold N_M = N_RH / 2 (Section V).
    int nM() const { return nRH / 2; }

    // Times in Ticks (core cycles), with window scaling applied.
    Tick tRCD() const { return nsToTicks(tRCDns); }
    Tick tRP() const { return nsToTicks(tRPns); }
    Tick tCL() const { return nsToTicks(tCLns); }
    Tick tRC() const { return nsToTicks(tRCns); }
    Tick tRAS() const { return nsToTicks(tRASns); }
    Tick tRRDS() const { return nsToTicks(tRRDSns); }
    Tick tRRDL() const { return nsToTicks(tRRDLns); }
    Tick tWR() const { return nsToTicks(tWRns); }
    /// Refresh pacing scales with the window so the ~7.5% refresh duty
    /// cycle (tRFC / tREFI) is preserved under timeScale.
    Tick tRFC() const { return nsToTicks(tRFCns / timeScale); }
    Tick tBL() const { return nsToTicks(tBLns); }
    Tick tFAW() const { return nsToTicks(tFAWns); }
    Tick tREFI() const { return nsToTicks(tREFIns / timeScale); }
    Tick tREFW() const { return nsToTicks(tREFWms * 1e6 / timeScale); }
    Tick vrrTicks() const { return nsToTicks(vrrNs * blastRadius); }
    Tick rfmSbTicks() const { return nsToTicks(rfmSbNs); }
    Tick drfmSbTicks() const { return nsToTicks(drfmSbNs); }
    Tick bulkRefreshRank() const
    {
        return nsToTicks(bulkRefreshRankMs * 1e6 / timeScale);
    }
    Tick bulkRefreshChannel() const
    {
        return nsToTicks(bulkRefreshChannelMs * 1e6 / timeScale);
    }
    /// DAPPER-S key/counter reset period.
    Tick
    dapperSReset() const
    {
        if (dapperSResetUs <= 0.0)
            return tREFW();
        return nsToTicks(dapperSResetUs * 1e3 / timeScale);
    }

    /** Validate invariants (power-of-two organization etc.). */
    void validate() const;

    /** One-line human-readable summary. */
    std::string summary() const;
};

} // namespace dapper

#endif // DAPPER_COMMON_CONFIG_HH
