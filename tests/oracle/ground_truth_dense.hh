/**
 * @file
 * Dense reference implementation of the ground-truth RowHammer checker.
 *
 * This is the pre-epoch implementation — per-row damage arrays with
 * eager sweeps on every refresh path — kept as an executable
 * specification only: tests/ground_truth_test.cc pins the epoch-stamped
 * GroundTruth against it across randomized event interleavings. It is
 * part of the test-only dapper_oracle target; the simulator never
 * instantiates it.
 *
 * The auto-refresh slice rotation here carries the same coverage fix as
 * the production model: the slice count rounds up, so the tail rows of a
 * bank whose row count is not a multiple of the slice size still fall
 * inside the rotation (the last slice is short).
 */

#ifndef DAPPER_TESTS_ORACLE_GROUND_TRUTH_DENSE_HH
#define DAPPER_TESTS_ORACLE_GROUND_TRUTH_DENSE_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/common/config.hh"
#include "src/rh/ground_truth.hh"

namespace dapper {

class DenseGroundTruth
{
  public:
    explicit DenseGroundTruth(const SysConfig &cfg)
        : cfg_(cfg),
          rowsPerBank_(cfg.rowsPerBank),
          nRH_(static_cast<std::uint32_t>(cfg.nRH))
    {
        const int banksTotal = cfg.ranksPerChannel * cfg.banksPerRank();
        damage_.resize(static_cast<std::size_t>(cfg.channels) * banksTotal);
        for (auto &vec : damage_)
            vec.assign(static_cast<std::size_t>(rowsPerBank_), 0);
        refreshSlice_.assign(
            static_cast<std::size_t>(cfg.channels) * cfg.ranksPerChannel,
            0);
        sliceRows_ = std::max(1, rowsPerBank_ / 8192);
        sliceCount_ = (rowsPerBank_ + sliceRows_ - 1) / sliceRows_;
    }

    void
    onActivation(int channel, int rank, int bank, int row)
    {
        ++activations_;
        current_ = {channel, rank, bank, row};
        auto &vec = bankVec(channel, rank, bank);
        bump(vec, row - 1);
        bump(vec, row + 1);
    }

    void
    onVictimRefresh(int channel, int rank, int bank, int row,
                    int blastRadius)
    {
        auto &vec = bankVec(channel, rank, bank);
        for (int d = 1; d <= blastRadius; ++d) {
            if (row - d >= 0)
                vec[static_cast<std::size_t>(row - d)] = 0;
            if (row + d < rowsPerBank_)
                vec[static_cast<std::size_t>(row + d)] = 0;
        }
    }

    void
    onAutoRefresh(int channel, int rank)
    {
        auto &slice =
            refreshSlice_[static_cast<std::size_t>(channel) *
                              cfg_.ranksPerChannel + rank];
        const int start = slice * sliceRows_;
        for (int bank = 0; bank < cfg_.banksPerRank(); ++bank) {
            auto &vec = bankVec(channel, rank, bank);
            for (int row = start;
                 row < start + sliceRows_ && row < rowsPerBank_; ++row)
                vec[static_cast<std::size_t>(row)] = 0;
        }
        slice = (slice + 1) % sliceCount_;
    }

    void
    onBulkRankRefresh(int channel, int rank)
    {
        for (int bank = 0; bank < cfg_.banksPerRank(); ++bank) {
            auto &vec = bankVec(channel, rank, bank);
            std::memset(vec.data(), 0,
                        vec.size() * sizeof(std::uint16_t));
        }
    }

    void
    onBulkChannelRefresh(int channel)
    {
        for (int rank = 0; rank < cfg_.ranksPerChannel; ++rank)
            onBulkRankRefresh(channel, rank);
    }

    void
    onWindowBoundary()
    {
        for (auto &vec : damage_)
            std::memset(vec.data(), 0, vec.size() * sizeof(std::uint16_t));
    }

    std::uint32_t maxDamageEver() const { return maxDamageEver_; }
    std::uint64_t violations() const { return violations_; }
    const GroundTruth::Location &firstViolation() const
    {
        return firstViolation_;
    }
    std::uint64_t activations() const { return activations_; }

    std::uint32_t
    damageOf(int channel, int rank, int bank, int row) const
    {
        const int banksTotal = cfg_.ranksPerChannel * cfg_.banksPerRank();
        return damage_[static_cast<std::size_t>(channel) * banksTotal +
                       rank * cfg_.banksPerRank() + bank]
                      [static_cast<std::size_t>(row)];
    }

    int sliceRows() const { return sliceRows_; }
    int sliceCount() const { return sliceCount_; }

  private:
    std::vector<std::uint16_t> &
    bankVec(int channel, int rank, int bank)
    {
        const int banksTotal = cfg_.ranksPerChannel * cfg_.banksPerRank();
        return damage_[static_cast<std::size_t>(channel) * banksTotal +
                       rank * cfg_.banksPerRank() + bank];
    }

    void
    bump(std::vector<std::uint16_t> &vec, int row)
    {
        if (row < 0 || row >= rowsPerBank_)
            return;
        auto &cell = vec[static_cast<std::size_t>(row)];
        if (cell < GroundTruth::kDamageCap) // mirror the packed cell's cap
            ++cell;
        if (cell > maxDamageEver_)
            maxDamageEver_ = cell;
        if (cell >= nRH_) {
            if (violations_ == 0) {
                firstViolation_ = current_;
                firstViolation_.row = row;
            }
            ++violations_;
        }
    }

    const SysConfig cfg_;
    int rowsPerBank_;
    std::uint32_t nRH_;
    std::vector<std::vector<std::uint16_t>> damage_;
    std::vector<int> refreshSlice_;
    int sliceRows_;
    int sliceCount_;
    std::uint32_t maxDamageEver_ = 0;
    std::uint64_t violations_ = 0;
    std::uint64_t activations_ = 0;
    GroundTruth::Location firstViolation_;
    GroundTruth::Location current_;
};

} // namespace dapper

#endif // DAPPER_TESTS_ORACLE_GROUND_TRUTH_DENSE_HH
