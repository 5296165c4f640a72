#include "src/rh/registry.hh"

#include <stdexcept>

#include "src/rh/abacus.hh"
#include "src/rh/blockhammer.hh"
#include "src/rh/comet.hh"
#include "src/rh/dapper_h.hh"
#include "src/rh/dapper_s.hh"
#include "src/rh/graphene.hh"
#include "src/rh/hydra.hh"
#include "src/rh/para.hh"
#include "src/rh/prac.hh"
#include "src/rh/pride.hh"
#include "src/rh/start.hh"

namespace dapper {

namespace {

/** Factory for a tracker built from the config plus fixed @p extra
 *  constructor arguments; the LLC is not needed. */
template <typename T, typename... Extra>
auto
construct(Extra... extra)
{
    return [=](SysConfig &cfg, Llc *) -> std::unique_ptr<Tracker> {
        return std::make_unique<T>(cfg, extra...);
    };
}

void
useDrfmSb(SysConfig &cfg)
{
    cfg.mitigationCmd = SysConfig::MitigationCmd::DrfmSb;
}

} // namespace

// The built-in trackers, in the order names() lists them (bench grids
// and --help print that order).
TrackerRegistry::TrackerRegistry() : NamedRegistry("tracker")
{
    add({.name = "none",
         .displayName = "None",
         .make = [](SysConfig &, Llc *) -> std::unique_ptr<Tracker> {
             return nullptr; // Unprotected system.
         }});
    add({.name = "para",
         .displayName = "PARA",
         .make = construct<ParaTracker>()});
    add({.name = "para-drfmsb",
         .displayName = "PARA-DRFMsb",
         .adjustConfig = useDrfmSb,
         .make = construct<ParaTracker>()});
    add({.name = "pride",
         .displayName = "PrIDE",
         .make = construct<PrideTracker>(false)});
    add({.name = "pride-rfmsb",
         .displayName = "PrIDE-RFMsb",
         .make = construct<PrideTracker>(true)});
    add({.name = "prac",
         .displayName = "PRAC",
         .make = construct<PracTracker>()});
    add({.name = "blockhammer",
         .displayName = "BlockHammer",
         .make = construct<BlockHammerTracker>()});
    add({.name = "hydra",
         .displayName = "Hydra",
         .counterAttack = "hydra-rcc",
         .make = construct<HydraTracker>()});
    add({.name = "start",
         .displayName = "START",
         .reservesLlc = true,
         .counterAttack = "start-stream",
         .make = [](SysConfig &cfg, Llc *llc) -> std::unique_ptr<Tracker> {
             auto tracker = std::make_unique<StartTracker>(cfg);
             tracker->attachLlc(llc);
             return tracker;
         }});
    add({.name = "comet",
         .displayName = "CoMeT",
         .counterAttack = "comet-rat",
         .make = construct<CometTracker>()});
    add({.name = "abacus",
         .displayName = "ABACUS",
         .counterAttack = "abacus-spill",
         .make = construct<AbacusTracker>()});
    add({.name = "graphene",
         .displayName = "Graphene",
         .make = construct<GrapheneTracker>()});
    add({.name = "dapper-s",
         .displayName = "DAPPER-S",
         .counterAttack = "streaming",
         .make = construct<DapperSTracker>()});
    add({.name = "dapper-h",
         .displayName = "DAPPER-H",
         .counterAttack = "streaming",
         .make = construct<DapperHTracker>()});
    add({.name = "dapper-h-br2",
         .displayName = "DAPPER-H-BR2",
         .counterAttack = "streaming",
         .adjustConfig = [](SysConfig &cfg) { cfg.blastRadius = 2; },
         .make = construct<DapperHTracker>()});
    add({.name = "dapper-h-drfmsb",
         .displayName = "DAPPER-H-DRFMsb",
         .counterAttack = "streaming",
         .adjustConfig = useDrfmSb,
         .make = construct<DapperHTracker>()});
    // Ablation: no row bit-vector.
    add({.name = "dapper-h-nobv",
         .displayName = "DAPPER-H-noBV",
         .counterAttack = "streaming",
         .make = construct<DapperHTracker>(false)});
}

TrackerRegistry &
TrackerRegistry::instance()
{
    static TrackerRegistry registry;
    return registry;
}

void
TrackerRegistry::normalize(TrackerInfo &info)
{
    if (!info.make)
        throw std::invalid_argument("tracker '" + info.name +
                                    "' has no factory");
    if (info.displayName.empty())
        info.displayName = info.name;
    if (!info.adjustConfig)
        info.adjustConfig = [](SysConfig &) {};
}

} // namespace dapper
