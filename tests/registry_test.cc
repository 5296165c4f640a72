/**
 * @file
 * Registry round-trip and metadata tests: every tracker/attack entry
 * resolves back to itself by name, names are unique, the built-in
 * tables keep their order, display names and capability metadata, the
 * combo list tests/scheduler_equivalence_test.cc pins stays reachable
 * by name, and a tracker registered outside the built-in table in
 * src/rh/registry.cc (the "one file" recipe) is a first-class citizen
 * of the Scenario API.
 */

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "src/sim/runner.hh"

namespace dapper {
namespace {

TEST(TrackerRegistryTest, EveryEntryRoundTripsByName)
{
    auto &registry = TrackerRegistry::instance();
    std::set<std::string> seen;
    for (const TrackerInfo *info : registry.entries()) {
        EXPECT_TRUE(seen.insert(info->name).second)
            << "duplicate name " << info->name;
        // parse(name(x)) == x: lookup returns the same stable entry.
        EXPECT_EQ(registry.find(info->name), info);
        EXPECT_EQ(&registry.at(info->name), info);
    }
}

TEST(TrackerRegistryTest, CounterAttacksResolve)
{
    for (const TrackerInfo *info : TrackerRegistry::instance().entries())
        EXPECT_NE(AttackRegistry::instance().find(info->counterAttack),
                  nullptr)
            << info->name << " -> " << info->counterAttack;
    EXPECT_EQ(TrackerRegistry::instance().at("hydra").counterAttack,
              "hydra-rcc");
    EXPECT_EQ(TrackerRegistry::instance().at("start").counterAttack,
              "start-stream");
    EXPECT_EQ(TrackerRegistry::instance().at("comet").counterAttack,
              "comet-rat");
    EXPECT_EQ(TrackerRegistry::instance().at("abacus").counterAttack,
              "abacus-spill");
}

TEST(TrackerRegistryTest, UnknownNameThrowsListingChoices)
{
    try {
        TrackerRegistry::instance().at("no-such-tracker");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("no-such-tracker"), std::string::npos);
        EXPECT_NE(msg.find("dapper-h"), std::string::npos);
    }
}

TEST(AttackRegistryTest, EveryEntryRoundTripsByName)
{
    auto &registry = AttackRegistry::instance();
    std::set<std::string> seen;
    for (const AttackInfo *info : registry.entries()) {
        EXPECT_TRUE(seen.insert(info->name).second)
            << "duplicate name " << info->name;
        EXPECT_EQ(registry.find(info->name), info);
        EXPECT_EQ(&registry.at(info->name), info);
    }
}

/**
 * The built-in tables, entry for entry: registration order (bench grids
 * and --help print names() in it), display names (printed tables) and
 * capability metadata. Only the leading entries are compared, because
 * extensions such as test-alias-dapper-h below register after them.
 */
TEST(RegistrySyncTest, BuiltinTablesKeepOrderNamesAndMetadata)
{
    using Row = std::tuple<std::string, std::string, bool, std::string>;
    const std::vector<Row> trackers = {
        {"none", "None", false, "none"},
        {"para", "PARA", false, "none"},
        {"para-drfmsb", "PARA-DRFMsb", false, "none"},
        {"pride", "PrIDE", false, "none"},
        {"pride-rfmsb", "PrIDE-RFMsb", false, "none"},
        {"prac", "PRAC", false, "none"},
        {"blockhammer", "BlockHammer", false, "none"},
        {"hydra", "Hydra", false, "hydra-rcc"},
        {"start", "START", true, "start-stream"},
        {"comet", "CoMeT", false, "comet-rat"},
        {"abacus", "ABACUS", false, "abacus-spill"},
        {"graphene", "Graphene", false, "none"},
        {"dapper-s", "DAPPER-S", false, "streaming"},
        {"dapper-h", "DAPPER-H", false, "streaming"},
        {"dapper-h-br2", "DAPPER-H-BR2", false, "streaming"},
        {"dapper-h-drfmsb", "DAPPER-H-DRFMsb", false, "streaming"},
        {"dapper-h-nobv", "DAPPER-H-noBV", false, "streaming"},
    };
    const auto trackerEntries = TrackerRegistry::instance().entries();
    ASSERT_GE(trackerEntries.size(), trackers.size());
    for (std::size_t i = 0; i < trackers.size(); ++i) {
        const TrackerInfo &info = *trackerEntries[i];
        EXPECT_EQ(Row(info.name, info.displayName, info.reservesLlc,
                      info.counterAttack),
                  trackers[i])
            << "tracker entry " << i;
    }

    const std::vector<std::string> attacks = {
        "none",         "cache-thrash", "hydra-rcc",
        "start-stream", "comet-rat",    "abacus-spill",
        "streaming",    "refresh",
    };
    std::vector<std::string> attackNames = AttackRegistry::instance().names();
    ASSERT_GE(attackNames.size(), attacks.size());
    attackNames.resize(attacks.size());
    EXPECT_EQ(attackNames, attacks);
}

/**
 * The scheduler-equivalence suite pins these (tracker, attack) combos
 * bit-identical across engines; the registries must keep exporting
 * every one of them under these exact names so benches and CLI flags
 * can reach all pinned behavior.
 */
TEST(RegistrySyncTest, SchedulerEquivalenceComboListResolves)
{
    for (const char *name : {"none", "hydra", "start", "dapper-h",
                             "blockhammer", "para", "prac", "abacus",
                             "dapper-s", "comet"})
        EXPECT_NE(TrackerRegistry::instance().find(name), nullptr) << name;
    for (const char *name : {"none", "refresh", "hydra-rcc", "streaming",
                             "start-stream", "abacus-spill"})
        EXPECT_NE(AttackRegistry::instance().find(name), nullptr) << name;
}

/**
 * TrackerInfo::storage() — the path tab03 and the "tracker.storage.*"
 * stats resolve through — must report exactly what a directly-built
 * tracker reports (Table III re-derived from the registry is
 * bit-identical), and the stats export must carry the same numbers.
 */
TEST(TrackerRegistryTest, StorageViaRegistryMatchesDirectConstruction)
{
    for (const TrackerInfo *info : TrackerRegistry::instance().entries()) {
        SysConfig cfg;
        cfg.nRH = 500;
        cfg.timeScale = 1.0; // Table III quotes physical tREFW.
        const StorageEstimate viaRegistry = info->storage(cfg);
        SysConfig direct = cfg;
        info->adjustConfig(direct);
        const std::unique_ptr<Tracker> tracker =
            info->make(direct, nullptr);
        if (tracker == nullptr) { // "none": no storage at all.
            EXPECT_EQ(viaRegistry.sramKB, 0.0) << info->name;
            EXPECT_EQ(viaRegistry.camKB, 0.0) << info->name;
            continue;
        }
        const StorageEstimate fromTracker = tracker->storage();
        EXPECT_EQ(viaRegistry.sramKB, fromTracker.sramKB) << info->name;
        EXPECT_EQ(viaRegistry.camKB, fromTracker.camKB) << info->name;
        EXPECT_EQ(viaRegistry.areaMm2(), fromTracker.areaMm2())
            << info->name;

        // The default exportStats publishes the same estimate.
        StatDict dict;
        StatWriter writer(dict);
        StatWriter scoped = writer.scope("tracker");
        tracker->exportStats(scoped);
        EXPECT_EQ(dict.f64("tracker.storage.sramKB"), fromTracker.sramKB)
            << info->name;
        EXPECT_EQ(dict.f64("tracker.storage.camKB"), fromTracker.camKB)
            << info->name;
        EXPECT_EQ(dict.f64("tracker.storage.areaMm2"),
                  fromTracker.areaMm2())
            << info->name;
        EXPECT_EQ(dict.u64("tracker.mitigations"), 0u) << info->name;
    }
}

// ---------------------------------------------------------------------
// The "adding a tracker in one file" recipe: register an entry from
// this translation unit and drive it through the full Scenario API.
// The alias delegates to the DAPPER-H entry's factory, so its results
// must be bit-identical to the built-in entry — proving an extension
// takes the exact same path as the built-in table's entries.
// ---------------------------------------------------------------------

DAPPER_REGISTER_TRACKER(testAlias, {
    .name = "test-alias-dapper-h",
    .displayName = "TestAlias",
    .reservesLlc = false,
    .counterAttack = "streaming",
    .adjustConfig = {},
    .make =
        [](SysConfig &cfg, Llc *llc) {
            return TrackerRegistry::instance().at("dapper-h").make(cfg, llc);
        },
});

TEST(RegistryExtensionTest, OneFileTrackerRunsThroughScenarioApi)
{
    const TrackerInfo &info =
        TrackerRegistry::instance().at("test-alias-dapper-h");
    EXPECT_EQ(info.displayName, "TestAlias");

    SysConfig cfg;
    cfg.nRH = 500;
    cfg.timeScale = 32.0;
    const Scenario base = Scenario()
                              .config(cfg)
                              .workload("429.mcf")
                              .attack("refresh")
                              .horizon(200000);
    Runner runner;
    const RunResult custom =
        runner.runRaw(Scenario(base).tracker("test-alias-dapper-h"));
    const RunResult builtin =
        runner.runRaw(Scenario(base).tracker("dapper-h"));
    EXPECT_EQ(custom.benignIpcMean, builtin.benignIpcMean);
    EXPECT_EQ(custom.mitigations, builtin.mitigations);
    EXPECT_EQ(custom.activations, builtin.activations);
    EXPECT_EQ(custom.energyNj, builtin.energyNj);
}

} // namespace
} // namespace dapper
