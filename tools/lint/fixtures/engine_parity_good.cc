// dapper-audit fixture: NEGATIVE twin for engine-parity.
// Mutating helpers reachable from BOTH engines are fine (that is the
// shared simulation path), as are methods reachable from neither root
// and pure helpers only one engine uses.
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

    std::uint64_t
    peek() const  // pure: one-engine reachability is harmless
    {
        return fastPath_;
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
            board_.bump();
            (void)board_.peek();  // event engine peeks, never mutates
            step();
        }
    }

    void
    resetForNextCell()  // reachable from neither engine root: not parity
    {
        now_ = 0;
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
        while (sys.now_ < horizon) {
            sys.board_.bump();
            sys.step();
        }
    }
};

} // namespace fixture
