#include "src/rh/start.hh"

#include "src/cache/llc.hh"

namespace dapper {

StartTracker::StartTracker(const SysConfig &cfg) : BaseTracker(cfg)
{
    rct_.reset(static_cast<std::size_t>(cfg.channels) *
               cfg.ranksPerChannel * cfg.rowsPerRank());
}

void
StartTracker::counterLocation(std::uint64_t rowId, int &bank, int &row) const
{
    const std::uint64_t line = rowId / kCountersPerLine;
    bank = static_cast<int>(line % static_cast<std::uint64_t>(
                                       cfg_.banksPerRank()));
    const int reservedRows = 256;
    row = cfg_.rowsPerBank - 1 -
          static_cast<int>((line / static_cast<std::uint64_t>(
                                       cfg_.banksPerRank())) %
                           static_cast<std::uint64_t>(reservedRows));
}

void
StartTracker::onActivation(const ActEvent &e, MitigationVec &out)
{
    const int ri = rankIndex(e.channel, e.rank);
    const std::uint64_t rowId = rankRowId(e.bank, e.row);

    // The counter line must be in the reserved LLC region; a miss costs a
    // DRAM fetch and possibly a dirty-victim writeback.
    const std::uint64_t counterIdx = flatRowId(ri, rowId);
    const std::uint64_t counterLine = counterIdx / kCountersPerLine;
    if (llc_ != nullptr) {
        const auto res = llc_->counterAccess(counterLine, true);
        if (!res.hit) {
            int cBank = 0;
            int cRow = 0;
            counterLocation(rowId, cBank, cRow);
            if (res.evictedDirty)
                out.push_back({Mitigation::Kind::CounterWrite, e.channel,
                               e.rank, cBank, cRow});
            out.push_back({Mitigation::Kind::CounterRead, e.channel, e.rank,
                           cBank, cRow});
        }
    }

    auto &cnt = rct_[counterIdx];
    if (++cnt >= nM_) {
        out.push_back(victimRefresh(e.channel, e.rank, e.bank, e.row));
        cnt = 0;
        ++mitigations_;
    }
}

void
StartTracker::onRefreshWindow(Tick now, MitigationVec &out)
{
    (void)now;
    (void)out;
    rct_.clear();
}

std::uint32_t
StartTracker::rctCount(int channel, int rank, std::uint64_t rowId) const
{
    return rct_[flatRowId(rankIndex(channel, rank), rowId)];
}

} // namespace dapper
