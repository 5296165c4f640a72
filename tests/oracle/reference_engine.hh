/**
 * @file
 * The per-tick oracle System::run must match bit for bit
 * (tests/scheduler_equivalence_test.cc; contract in src/sim/README.md):
 * every core and controller is ticked on every core cycle, with the
 * controller issue memo off. Part of the test-only dapper_oracle target.
 */

#ifndef DAPPER_TESTS_ORACLE_REFERENCE_ENGINE_HH
#define DAPPER_TESTS_ORACLE_REFERENCE_ENGINE_HH

#include <vector>

#include "src/sim/experiment.hh"
#include "src/sim/system.hh"

namespace dapper {

class ReferenceEngine
{
  public:
    /** Advance @p sys to @p horizon ticks, one tick at a time. */
    static void run(System &sys, Tick horizon);
};

/** runOnce with ReferenceEngine::run as the time advance: the same
 *  build, collection and checks (detail::runSystem). */
RunResult runOnceReference(const SysConfig &cfg,
                           const std::vector<std::string> &workloads,
                           const AttackInfo &attack,
                           const TrackerInfo &tracker, Tick horizon = 0);

} // namespace dapper

#endif // DAPPER_TESTS_ORACLE_REFERENCE_ENGINE_HH
