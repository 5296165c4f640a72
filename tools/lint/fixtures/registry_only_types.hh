// dapper-lint fixture: mini mirror of the project's tracker hierarchy.
// Concrete descendants of Tracker may only be constructed in their own
// TU, the built-in tracker table (src/rh/registry.cc), or a
// DAPPER_REGISTER_* site (see src/rh/registry.hh).
#ifndef FIXTURE_REGISTRY_ONLY_TYPES_HH
#define FIXTURE_REGISTRY_ONLY_TYPES_HH

namespace fixture {

class Tracker
{
  public:
    virtual ~Tracker() = default;
    virtual int mitigate() = 0;
};

class FixtureTracker final : public Tracker
{
  public:
    int mitigate() override;
};

} // namespace fixture

#endif // FIXTURE_REGISTRY_ONLY_TYPES_HH
