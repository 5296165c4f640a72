// dapper-audit fixture: POSITIVE case for engine-parity.
// `Scoreboard::bump` mutates member state and is reachable (over the
// approximate call graph) from System::run but not ReferenceEngine::run
// — exactly the shape of an event-engine-only optimization that could
// silently diverge the two engines.
#include <cstdint>

namespace fixture {

class Scoreboard
{
  public:
    void
    bump()
    {
        ++fastPath_;
    }

  private:
    std::uint64_t fastPath_ = 0;
};

class System
{
  public:
    void
    run(std::uint64_t horizon)
    {
        while (now_ < horizon) {
            board_.bump();  // event engine only: parity hazard
            step();
        }
    }

  private:
    friend struct ReferenceEngine;

    void
    step()
    {
        ++now_;
    }

    std::uint64_t now_ = 0;
    Scoreboard board_;
};

struct ReferenceEngine
{
    static void
    run(System &sys, std::uint64_t horizon)
    {
        while (sys.now_ < horizon)
            sys.step();
    }
};

} // namespace fixture
