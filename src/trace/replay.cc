#include "src/trace/replay.hh"

#include <cstdlib>
#include <map>
#include <mutex>
#include <utility>

#include "src/common/check.hh"
#include "src/common/rng.hh"

#ifndef DAPPER_TRACE_DIR_DEFAULT
#define DAPPER_TRACE_DIR_DEFAULT "traces"
#endif

namespace dapper {

std::string
traceDir()
{
    DAPPER_LINT_ALLOW(seed-purity,
                      "env var only relocates where trace files are read "
                      "from; record content is CRC-pinned by the reader, so "
                      "simulated results cannot depend on it");
    if (const char *env = std::getenv("DAPPER_TRACE_DIR"))
        if (*env != '\0')
            return env;
    return DAPPER_TRACE_DIR_DEFAULT;
}

std::shared_ptr<const TraceReader>
sharedTraceReader(const std::string &path)
{
    static std::mutex mutex;
    static std::map<std::string, std::shared_ptr<const TraceReader>>
        cache;
    std::lock_guard<std::mutex> lock(mutex);
    auto it = cache.find(path);
    if (it != cache.end())
        return it->second;
    auto reader = std::make_shared<const TraceReader>(path);
    cache.emplace(path, reader);
    return reader;
}

std::uint64_t
traceStartIndex(const TraceReader &reader, int coreId, std::uint64_t seed)
{
    // Exact replay when the factory seed matches the capture seed; any
    // other seed perturbs only the start offset (seed-purity contract).
    if (seed == reader.baseSeed())
        return 0;
    const std::uint64_t mix =
        seed ^ reader.baseSeed() ^
        (static_cast<std::uint64_t>(static_cast<unsigned>(coreId)) *
         0x9E3779B97F4A7C15ULL);
    return mixHash64(mix) % reader.recordCount();
}

TraceReplayGen::TraceReplayGen(std::shared_ptr<const TraceReader> reader,
                               std::string workloadName, int coreId,
                               std::uint64_t seed)
    : reader_(std::move(reader)), name_(std::move(workloadName)),
      startIndex_(traceStartIndex(*reader_, coreId, seed)),
      cursor_(*reader_, startIndex_)
{
}

WorkloadInfo
makeTraceWorkload(std::string workloadName, std::string path,
                  std::string description)
{
    WorkloadInfo info;
    info.name = std::move(workloadName);
    info.description = std::move(description);
    info.isTrace = true;
    info.make = [name = info.name, path = std::move(path)](
                    const SysConfig &, int coreId, std::uint64_t seed) {
        const std::string resolved =
            path.empty() || path.front() == '/' ? path
                                                : traceDir() + "/" + path;
        return std::make_unique<TraceReplayGen>(
            sharedTraceReader(resolved), name, coreId, seed);
    };
    return info;
}

} // namespace dapper
