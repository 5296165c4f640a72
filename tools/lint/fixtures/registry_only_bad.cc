// dapper-lint fixture: POSITIVE for registry-only.
// Constructing a concrete tracker outside its own TU bypasses the
// registry: names, capability metadata, and scenario fingerprints fall
// out of sync with what actually runs.
#include "registry_only_types.hh"

#include <memory>

namespace fixture {

std::unique_ptr<Tracker>
sidestepRegistry()
{
    return std::make_unique<FixtureTracker>(); // BAD: not own TU/table
}

Tracker *
sidestepRegistryRaw()
{
    return new FixtureTracker(); // BAD
}

} // namespace fixture
