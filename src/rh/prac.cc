#include "src/rh/prac.hh"

namespace dapper {

PracTracker::PracTracker(const SysConfig &cfg) : BaseTracker(cfg)
{
    counters_.reset(static_cast<std::size_t>(cfg.channels) *
                    cfg.ranksPerChannel * cfg.rowsPerRank());
}

void
PracTracker::onActivation(const ActEvent &e, MitigationVec &out)
{
    auto &cnt = counters_[flatRowId(rankIndex(e.channel, e.rank),
                                    rankRowId(e.bank, e.row))];
    if (++cnt >= nM_) {
        // QPRAC services mitigations from a proactive queue during
        // regular refresh opportunities; the channel-stalling ALERT
        // back-off is only the (rarely exercised) backstop. Model the
        // common case: a per-bank victim refresh, which is why PRAC is
        // barely Perf-Attack-sensitive (Fig. 17) — its cost is the
        // per-ACT counter RMW, not the mitigations.
        out.push_back(victimRefresh(e.channel, e.rank, e.bank, e.row));
        cnt = 0;
        ++mitigations_;
    }
}

void
PracTracker::onRefreshWindow(Tick now, MitigationVec &out)
{
    (void)now;
    (void)out;
    counters_.clear();
}

std::uint32_t
PracTracker::counterOf(int channel, int rank, int bank, int row) const
{
    return counters_[flatRowId(rankIndex(channel, rank),
                               rankRowId(bank, row))];
}

} // namespace dapper
