#include "src/workload/attack_registry.hh"

#include <stdexcept>

namespace dapper {

AttackRegistry &
AttackRegistry::instance()
{
    static AttackRegistry registry;
    return registry;
}

void
AttackRegistry::normalize(AttackInfo &info)
{
    if (!info.make)
        throw std::invalid_argument("attack '" + info.name +
                                    "' has no factory");
}

} // namespace dapper
