/**
 * @file
 * Performance-Attack address-stream generators (paper Sections III-B
 * and V-E) and the AttackRegistry table that names them. The §V-D
 * mapping-capture attack is analysed in closed form (src/analysis).
 *
 * Each generator emits the DRAM activation pattern the paper describes:
 *  - CacheThrash: classic LLC-thrashing stream (the baseline attack);
 *  - HydraRcc: >32 rows mapping to the same Row Counter Cache set across
 *    banks, forcing RCC set-conflict misses and counter traffic (Fig 2a);
 *  - StartStream: stream over all rows, filling START's reserved LLC
 *    counter region and forcing counter fetches (Fig 2b);
 *  - CometRat: rapid activation of more rows than the 128-entry RAT
 *    holds, forcing counter overestimation and early resets (Fig 2c);
 *  - AbacusSpill: ever-new row IDs across banks, overflowing the shared
 *    Misra-Gries spillover counter (Fig 2d);
 *  - Streaming: activate every row in the rank (mapping-agnostic, §V-E);
 *  - RefreshAttack: hammer a few rows per bank to continually trigger
 *    group mitigations (mapping-agnostic, §V-E).
 *
 * Attack accesses bypass the LLC (modeling engineered uncached access)
 * except CacheThrash, whose entire point is cache pollution.
 */

#include "src/workload/attack_registry.hh"

namespace dapper {

namespace {

/** Common base: bypassing reads, zero bubbles, coordinates via mapper. */
class AttackBase : public TraceGen
{
  public:
    AttackBase(const SysConfig &cfg, const AddressMapper &mapper)
        : cfg_(cfg), mapper_(mapper)
    {
    }

  protected:
    TraceRecord
    record(int channel, int rank, int bank, int row, int col = 0,
           bool bypass = true) const
    {
        DramAddress addr;
        addr.channel = channel;
        addr.rank = rank;
        addr.bank = bank;
        addr.row = row;
        addr.col = col;
        TraceRecord rec;
        rec.bubbles = 0;
        rec.isWrite = false;
        rec.bypassLlc = bypass;
        rec.addr = mapper_.encode(addr);
        return rec;
    }

    SysConfig cfg_;
    const AddressMapper &mapper_;
    std::uint64_t n_ = 0;
};

/** Sequential sweep over several LLC-sized regions (cached accesses). */
class CacheThrashGen : public AttackBase
{
  public:
    using AttackBase::AttackBase;

    TraceRecord
    next() override
    {
        const std::uint64_t sweepLines =
            4 * cfg_.llcBytes / static_cast<std::uint64_t>(cfg_.lineBytes);
        const std::uint64_t line = n_++ % sweepLines;
        TraceRecord rec;
        rec.bubbles = 0;
        rec.isWrite = false;
        rec.bypassLlc = false;
        rec.addr = line * static_cast<std::uint64_t>(cfg_.lineBytes);
        return rec;
    }

    std::string name() const override { return "attack-cache-thrash"; }
};

/** 64 rows, same RCC set (row mod 128), across all banks (Fig 2a). */
class HydraRccGen : public AttackBase
{
  public:
    using AttackBase::AttackBase;

    TraceRecord
    next() override
    {
        const std::uint64_t n = n_++;
        const int channel =
            static_cast<int>(n % static_cast<std::uint64_t>(cfg_.channels));
        const std::uint64_t m = n / static_cast<std::uint64_t>(cfg_.channels);
        const int slot = static_cast<int>(m % 64);
        const int bank = slot % cfg_.banksPerRank();
        // Rows congruent mod 128 share a Row Counter Cache set.
        const int row = 8192 + (slot / cfg_.banksPerRank()) * 128;
        return record(channel, 0, bank, row);
    }

    std::string name() const override { return "attack-hydra-rcc"; }
};

/** Stream every row in every rank (Fig 2b / §V-E streaming attack). */
class StreamingGen : public AttackBase
{
  public:
    StreamingGen(const SysConfig &cfg, const AddressMapper &mapper,
                 bool cached)
        : AttackBase(cfg, mapper), cached_(cached)
    {
    }

    TraceRecord
    next() override
    {
        const std::uint64_t n = n_++;
        const int banks = cfg_.banksPerRank();
        const int channel =
            static_cast<int>(n % static_cast<std::uint64_t>(cfg_.channels));
        std::uint64_t m = n / static_cast<std::uint64_t>(cfg_.channels);
        const int rank = static_cast<int>(
            m % static_cast<std::uint64_t>(cfg_.ranksPerChannel));
        m /= static_cast<std::uint64_t>(cfg_.ranksPerChannel);
        const int bank = static_cast<int>(
            m % static_cast<std::uint64_t>(banks));
        m /= static_cast<std::uint64_t>(banks);
        const int row = static_cast<int>(
            m % static_cast<std::uint64_t>(cfg_.rowsPerBank));
        return record(channel, rank, bank, row, 0, !cached_);
    }

    std::string
    name() const override
    {
        return cached_ ? "attack-start-stream" : "attack-streaming";
    }

  private:
    bool cached_;
};

/** Cycle over 192 distinct rows (> 128-entry RAT) rapidly (Fig 2c). */
class CometRatGen : public AttackBase
{
  public:
    using AttackBase::AttackBase;

    TraceRecord
    next() override
    {
        const std::uint64_t n = n_++;
        const int channel =
            static_cast<int>(n % static_cast<std::uint64_t>(cfg_.channels));
        const std::uint64_t m = n / static_cast<std::uint64_t>(cfg_.channels);
        const int slot = static_cast<int>(m % 192);
        const int bank = slot % cfg_.banksPerRank();
        const int row = 16384 + (slot / cfg_.banksPerRank()) * 64;
        return record(channel, 0, bank, row);
    }

    std::string name() const override { return "attack-comet-rat"; }
};

/** Sequential ever-new row IDs across banks (Fig 2d). */
class AbacusSpillGen : public AttackBase
{
  public:
    using AttackBase::AttackBase;

    TraceRecord
    next() override
    {
        const std::uint64_t n = n_++;
        const int banks = cfg_.banksPerRank();
        const int channel =
            static_cast<int>(n % static_cast<std::uint64_t>(cfg_.channels));
        const std::uint64_t m = n / static_cast<std::uint64_t>(cfg_.channels);
        const int bank = static_cast<int>(
            m % static_cast<std::uint64_t>(banks));
        const int row = static_cast<int>(
            (m / static_cast<std::uint64_t>(banks)) %
            static_cast<std::uint64_t>(cfg_.rowsPerBank));
        return record(channel, 0, bank, row);
    }

    std::string name() const override { return "attack-abacus-spill"; }
};

/** Hammer two rows in each of 8 banks per rank (§V-E refresh attack). */
class RefreshAttackGen : public AttackBase
{
  public:
    using AttackBase::AttackBase;

    TraceRecord
    next() override
    {
        const std::uint64_t n = n_++;
        const int channel =
            static_cast<int>(n % static_cast<std::uint64_t>(cfg_.channels));
        std::uint64_t m = n / static_cast<std::uint64_t>(cfg_.channels);
        const int rank = static_cast<int>(
            m % static_cast<std::uint64_t>(cfg_.ranksPerChannel));
        m /= static_cast<std::uint64_t>(cfg_.ranksPerChannel);
        const int slot = static_cast<int>(m % 16);
        const int bank = slot % 8;
        const int row = 32768 + (slot / 8) * 2; // Two rows, 2 apart.
        return record(channel, rank, bank, row);
    }

    std::string name() const override { return "attack-refresh"; }
};

/** Factory for a generator built from (cfg, mapper) plus fixed
 *  @p extra constructor arguments; the seed goes unread (see
 *  AttackInfo::make). */
template <typename T, typename... Extra>
auto
generator(Extra... extra)
{
    return [=](const SysConfig &cfg, const AddressMapper &mapper,
               std::uint64_t) -> std::unique_ptr<TraceGen> {
        return std::make_unique<T>(cfg, mapper, extra...);
    };
}

} // namespace

// The built-in attacks, in the order names() lists them.
AttackRegistry::AttackRegistry() : NamedRegistry("attack")
{
    add({.name = "none",
         .make = [](const SysConfig &, const AddressMapper &,
                    std::uint64_t) -> std::unique_ptr<TraceGen> {
             return nullptr; // No attacker core.
         }});
    add({.name = "cache-thrash", .make = generator<CacheThrashGen>()});
    add({.name = "hydra-rcc", .make = generator<HydraRccGen>()});
    add({.name = "start-stream", .make = generator<StreamingGen>(true)});
    add({.name = "comet-rat", .make = generator<CometRatGen>()});
    add({.name = "abacus-spill", .make = generator<AbacusSpillGen>()});
    add({.name = "streaming", .make = generator<StreamingGen>(false)});
    add({.name = "refresh", .make = generator<RefreshAttackGen>()});
}

} // namespace dapper
