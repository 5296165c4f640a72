// dapper-audit fixture: justified DAPPER_LINT_ALLOW annotations silence
// audit rules on the annotation's line and the next line — the same
// contract the lexical linter uses. Covers the advisory tier
// (engine-parity) and an error-tier rule (narrowing-address).
#include <cstdint>

// Mirror of the annotation macro (the real tree gets it from
// src/common/check.hh).
#define DAPPER_LINT_ALLOW(rule, justification)                            \
    static_assert(true, "dapper-lint suppression record")

namespace fixture {

using Addr = std::uint64_t;

class Scoreboard
{
  public:
    DAPPER_LINT_ALLOW(engine-parity,
                      "fixture: event-engine-only bookkeeping; the "
                      "reference engine recomputes it tick-by-tick and "
                      "the equivalence test pins both bit-identical");
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

    std::uint32_t
    packRow(Addr addr)
    {
        DAPPER_LINT_ALLOW(narrowing-address,
                          "fixture: documented packed-cell lane — rows "
                          "fit 32 bits by construction of the config");
        const std::uint32_t row = addr >> 13;
        return row;
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
