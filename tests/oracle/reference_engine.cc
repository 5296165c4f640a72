#include "tests/oracle/reference_engine.hh"

namespace dapper {

void
ReferenceEngine::run(System &sys, Tick horizon)
{
    for (auto &mc : sys.controllers_)
        mc->setEventScheduling(false);
    while (sys.now_ < horizon) {
        const Tick t = sys.now_;
        for (auto &core : sys.cores_)
            core->tick(t);
        for (auto &mc : sys.controllers_)
            mc->tick(t);
        sys.serviceDeadlines(t);
        ++sys.now_;
    }
}

RunResult
runOnceReference(const SysConfig &cfg,
                 const std::vector<std::string> &workloads,
                 const AttackInfo &attack, const TrackerInfo &tracker,
                 Tick horizon)
{
    return detail::runSystem(cfg, workloads, attack, tracker, horizon,
                             &ReferenceEngine::run);
}

} // namespace dapper
