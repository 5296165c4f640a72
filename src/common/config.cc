#include "src/common/config.hh"

#include <sstream>
#include <stdexcept>

namespace dapper {

namespace {

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

void
SysConfig::validate() const
{
    if (numCores < 1)
        throw std::invalid_argument("numCores must be >= 1");
    if (!isPow2(static_cast<std::uint64_t>(channels)))
        throw std::invalid_argument("channels must be a power of two");
    if (!isPow2(static_cast<std::uint64_t>(ranksPerChannel)))
        throw std::invalid_argument("ranks must be a power of two");
    if (!isPow2(static_cast<std::uint64_t>(banksPerRank())))
        throw std::invalid_argument("banks per rank must be a power of two");
    if (!isPow2(static_cast<std::uint64_t>(rowsPerBank)))
        throw std::invalid_argument("rowsPerBank must be a power of two");
    if (!isPow2(static_cast<std::uint64_t>(rowBytes)) ||
        rowBytes % lineBytes != 0)
        throw std::invalid_argument("rowBytes must be a power of two "
                                    "multiple of lineBytes");
    // Non-power-of-two LLC capacities are allowed (Fig. 5 sweeps 2-5MB
    // per core); the cache indexes sets by modulo.
    if (llcBytes % (static_cast<std::uint64_t>(llcWays) * lineBytes) != 0)
        throw std::invalid_argument(
            "LLC size must be a multiple of ways x lineBytes");
    if (llcSets() < 1)
        throw std::invalid_argument("LLC too small");
    if (nRH < 4)
        throw std::invalid_argument("nRH too small");
    if (!isPow2(static_cast<std::uint64_t>(rowGroupSize)))
        throw std::invalid_argument("rowGroupSize must be a power of two");
    if (!(timeScale >= 1.0)) // Also rejects NaN.
        throw std::invalid_argument("timeScale must be >= 1");
    // The controller's completion FIFO relies on strictly increasing
    // completion ticks, which a burst of at least one tick guarantees.
    if (tBL() < 1)
        throw std::invalid_argument("tBL must be at least one tick");
    if (rowsPerRank() % rowGroupSize != 0)
        throw std::invalid_argument("rowGroupSize must divide rowsPerRank");
}

std::string
SysConfig::summary() const
{
    std::ostringstream os;
    os << numCores << " cores, " << (llcBytes >> 20) << "MB LLC, "
       << channels << "ch x " << ranksPerChannel << "rk x "
       << banksPerRank() << "banks x " << (rowsPerBank >> 10) << "K rows ("
       << (totalBytes() >> 30) << "GB), NRH=" << nRH
       << ", timeScale=" << timeScale;
    return os.str();
}

} // namespace dapper
