// dapper-audit fixture: an annotation with a trivial justification is
// itself a finding (bad-suppression) AND does not suppress the rule —
// the engine-parity finding below must survive.
#include <cstdint>

#define DAPPER_LINT_ALLOW(rule, justification)                            \
    static_assert(true, "dapper-lint suppression record")

namespace fixture {

class Scoreboard
{
  public:
    DAPPER_LINT_ALLOW(engine-parity, "perf");
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
            board_.bump();
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
