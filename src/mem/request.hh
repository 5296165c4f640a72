/**
 * @file
 * Memory request types exchanged between cores, the LLC, and the
 * per-channel memory controllers.
 */

#ifndef DAPPER_MEM_REQUEST_HH
#define DAPPER_MEM_REQUEST_HH

#include <cstdint>

#include "src/common/types.hh"
#include "src/dram/address.hh"

namespace dapper {

enum class ReqType : std::uint8_t
{
    Read,         ///< Demand read (LLC miss fill or attacker bypass).
    Write,        ///< Writeback / demand write.
    CounterRead,  ///< Tracker-injected RH counter fetch.
    CounterWrite, ///< Tracker-injected RH counter update.
};

class MemSink;

/** A single DRAM request at cache-line granularity. */
struct Request
{
    DramAddress dram;
    ReqType type = ReqType::Read;
    std::int32_t coreId = -1;
    Tick enqueuedAt = 0;
    MemSink *sink = nullptr; ///< Completion target (nullptr: fire & forget).
    std::uint32_t tag = 0;   ///< Opaque token returned to the sink.
    /**
     * Cache-line address (byte address >> lineBits) for LLC fill
     * requests, stamped by Llc::access so the completion path does not
     * re-encode the DRAM coordinates. Equal by construction to
     * encode(dram) >> lineBits; meaningless for other request kinds.
     */
    std::uint64_t lineAddr = 0;
};

/**
 * Completion callback interface. The controller calls memDone once per
 * request it completes, in completion-tick order; memDone may enqueue
 * follow-on requests (LLC writebacks).
 */
class MemSink
{
  public:
    virtual ~MemSink() = default;
    virtual void memDone(const Request &req, Tick now) = 0;
};

} // namespace dapper

#endif // DAPPER_MEM_REQUEST_HH
