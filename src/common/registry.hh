/**
 * @file
 * Shared mechanics for the name-keyed experiment registries
 * (TrackerRegistry in src/rh/registry.hh, AttackRegistry in
 * src/workload/attack_registry.hh, WorkloadRegistry in
 * src/workload/workload_registry.hh): stable-address entry storage,
 * duplicate/empty-name validation, and lookups by stable name with
 * error messages that list the available names.
 *
 * Info must provide `std::string name`.
 * Registration must complete before the registry is read concurrently;
 * in practice all registration happens during static initialization
 * and worker threads only read.
 */

#ifndef DAPPER_COMMON_REGISTRY_HH
#define DAPPER_COMMON_REGISTRY_HH

#include <deque>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace dapper {

template <typename Info>
class NamedRegistry
{
  public:
    /** Register an entry; throws std::invalid_argument on a duplicate
     *  or empty name. Returns the stored (stable) entry. */
    const Info &
    add(Info info)
    {
        if (info.name.empty())
            throw std::invalid_argument(label_ +
                                        " name must not be empty");
        if (byName_.count(info.name) != 0)
            throw std::invalid_argument("duplicate " + label_ +
                                        " name '" + info.name + "'");
        normalize(info);
        entries_.push_back(std::move(info));
        const Info &stored = entries_.back();
        byName_[stored.name] = &stored;
        return stored;
    }

    /** Lookup by stable name; nullptr when unknown. */
    const Info *
    find(const std::string &name) const
    {
        const auto it = byName_.find(name);
        return it == byName_.end() ? nullptr : it->second;
    }

    /** Lookup by stable name; throws std::invalid_argument listing the
     *  available names when unknown. */
    const Info &
    at(const std::string &name) const
    {
        if (const Info *info = find(name))
            return *info;
        std::ostringstream os;
        os << "unknown " << label_ << " '" << name << "' (available:";
        for (const Info &info : entries_)
            os << ' ' << info.name;
        os << ')';
        throw std::invalid_argument(os.str());
    }

    /** Stable names in registration order. */
    std::vector<std::string>
    names() const
    {
        std::vector<std::string> out;
        out.reserve(entries_.size());
        for (const Info &info : entries_)
            out.push_back(info.name);
        return out;
    }

    /** All entries in registration order. */
    std::vector<const Info *>
    entries() const
    {
        std::vector<const Info *> out;
        out.reserve(entries_.size());
        for (const Info &info : entries_)
            out.push_back(&info);
        return out;
    }

  protected:
    explicit NamedRegistry(std::string label) : label_(std::move(label))
    {
    }

    ~NamedRegistry() = default;

    /** Subclass hook: default/validate fields before storing. */
    virtual void normalize(Info &info) = 0;

  private:
    std::string label_;       ///< "tracker" / "attack", for messages.
    std::deque<Info> entries_; ///< Deque: stable addresses.
    std::map<std::string, const Info *> byName_;
};

} // namespace dapper

#endif // DAPPER_COMMON_REGISTRY_HH
