/**
 * @file
 * DTR ("DAPPER trace") — the compact, versioned, mmap-able trace
 * container behind trace-replay workloads (src/trace/replay.hh).
 *
 * A DTR file is a sequence of blocks, each one CRC frame of
 * src/common/journal.hh (encodeFrame / scanFrames) under the magic
 * 0x42525444 ("DTRB"); the frame type is 1 = Header, 2 = Data.
 *
 * Header payload (must be the first block, exactly once):
 *
 *   u32     version      format version (kDtrVersion)
 *   u64     baseSeed     generator seed at capture time (exact-replay
 *                        contract, see replay.hh); 0 for converted traces
 *   u64     recordCount  total records across all data blocks
 *   u32     blockCount   number of data blocks
 *   string  name         workload name carried into telemetry
 *
 * Data payload — each block decodes independently of every other block
 * (it carries its own address predecessor):
 *
 *   u64     prevAddr     address preceding the block's first record
 *                        (0 for the first block)
 *   u32     count        records in this block
 *   count × {
 *     varint  meta       (bubbles << 2) | (bypassLlc << 1) | isWrite
 *     varint  zigzag(addr - prevAddr)
 *   }
 *
 * Integers are little-endian; varints are LEB128. Unlike journals —
 * which tolerate and truncate torn tails, because a crashed appender is
 * their normal failure mode — a DTR file is an immutable artifact:
 * *any* framing, checksum, version, accounting, or record-encoding
 * violation makes the reader throw DtrError. A trace either loads
 * exactly or not at all.
 *
 * TraceWriter streams records through a bounded block buffer (single
 * pass; the header is patched in place on close, which is why its
 * payload length never changes). TraceReader maps the whole file with
 * mmap and validates it eagerly at open: every frame, then every
 * record — each data block must hold exactly `count` records ending
 * exactly at its payload end. That same pass stores a checkpoint
 * before every kDtrSeekStride-th record, so a Cursor seeks by
 * restoring one checkpoint and decoding at most kDtrSeekStride - 1
 * records. Cursors then decode lazily, in place — zero copies of the
 * record stream.
 */

#ifndef DAPPER_TRACE_DTR_HH
#define DAPPER_TRACE_DTR_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/workload/trace_gen.hh"

namespace dapper {

constexpr std::uint32_t kDtrMagic = 0x42525444; // "DTRB"
constexpr std::uint32_t kDtrVersion = 1;

enum class DtrBlock : std::uint8_t
{
    Header = 1,
    Data = 2,
};

/** Records per data block (~a few KB encoded). Writer-configurable,
 *  reader-agnostic; seeks do not depend on it (kDtrSeekStride). */
constexpr std::uint32_t kDtrDefaultBlockRecords = 4096;

/** Records between two of the reader's seek checkpoints: opening a
 *  Cursor decodes at most kDtrSeekStride - 1 records. */
constexpr std::uint32_t kDtrSeekStride = 64;

/** Any malformed-trace condition: bad magic/CRC/version, torn tail,
 *  truncated frame, accounting mismatch, or record bytes that do not
 *  fill their block exactly. */
class DtrError : public std::runtime_error
{
  public:
    explicit DtrError(const std::string &what)
        : std::runtime_error("dtr: " + what)
    {
    }
};

// ---------------------------------------------------------------------
// Varint / zigzag codecs (exposed for tests and the trace tool).
// ---------------------------------------------------------------------

void dtrPutVarint(std::string &out, std::uint64_t v);
/** Decode one LEB128 varint, advancing @p p; throws DtrError when the
 *  encoding overruns @p end or exceeds 64 bits. */
std::uint64_t dtrGetVarint(const unsigned char *&p,
                           const unsigned char *end);

constexpr std::uint64_t
dtrZigzagEncode(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t
dtrZigzagDecode(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

/** Frame one DTR block (encodeFrame under the DTR magic). Exposed so
 *  tests can craft invalid files. */
std::string encodeDtrBlock(DtrBlock type, const std::string &payload);

// ---------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------

class TraceWriter
{
  public:
    /**
     * Open @p path for writing (truncating an existing file) and emit
     * the header block. @p name is the workload name replay reports;
     * @p baseSeed is the capture seed (0 when the records did not come
     * from a seeded generator). Throws DtrError on I/O failure.
     */
    TraceWriter(const std::string &path, const std::string &name,
                std::uint64_t baseSeed = 0,
                std::uint32_t recordsPerBlock = kDtrDefaultBlockRecords);
    ~TraceWriter(); ///< Best-effort close() when still open.

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    void append(const TraceRecord &rec);

    /** Flush the final block, patch the header's record/block counts in
     *  place, and close the file. Throws DtrError on I/O failure. */
    void close();

    bool isOpen() const { return file_ != nullptr; }
    std::uint64_t recordCount() const { return recordCount_; }

  private:
    void flushBlock();
    std::string headerPayload() const;

    std::FILE *file_ = nullptr;
    std::string path_;
    std::string name_;
    std::uint64_t baseSeed_;
    std::uint32_t recordsPerBlock_;

    std::string blockBody_;       ///< Encoded records of the open block.
    std::uint32_t blockRecords_ = 0;
    std::uint64_t blockPrevAddr_ = 0; ///< prevAddr of the open block.
    std::uint64_t lastAddr_ = 0;      ///< Delta predecessor.
    std::uint64_t recordCount_ = 0;
    std::uint32_t blockCount_ = 0;
};

// ---------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------

class TraceReader
{
  public:
    /** mmap @p path and validate every frame and record eagerly;
     *  throws DtrError on any malformation, std::runtime_error on I/O
     *  failure. */
    explicit TraceReader(const std::string &path);
    ~TraceReader();

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    const std::string &path() const { return path_; }
    const std::string &name() const { return name_; }
    std::uint64_t baseSeed() const { return baseSeed_; }
    std::uint64_t recordCount() const { return recordCount_; }
    std::size_t blockCount() const { return blocks_.size(); }
    std::size_t fileBytes() const { return size_; }

    /**
     * Zero-copy sequential decoder over the mapped file, positioned at
     * an arbitrary record index (restore the checkpoint at or before
     * it, then decode at most kDtrSeekStride - 1 records). next() past
     * the last record wraps to record 0 — replay treats the trace as an
     * infinite loop. The cursor borrows the reader: keep the
     * TraceReader alive for the cursor's lifetime.
     */
    class Cursor
    {
      public:
        Cursor(const TraceReader &reader, std::uint64_t startIndex = 0);

        TraceRecord next();
        std::uint64_t index() const { return index_; }

      private:
        void enterBlock(std::size_t block);

        const TraceReader *reader_;
        std::size_t block_ = 0;
        const unsigned char *pos_ = nullptr;
        const unsigned char *end_ = nullptr;
        std::uint32_t leftInBlock_ = 0;
        std::uint64_t prevAddr_ = 0;
        std::uint64_t index_ = 0; ///< Global index of the next record.
    };

  private:
    friend class Cursor;

    /** One validated data block, pointing into the mapping. */
    struct BlockRef
    {
        const unsigned char *records; ///< First record byte.
        const unsigned char *end;     ///< One past the payload.
        std::uint64_t prevAddr;
        std::uint32_t count;
        std::size_t offset;           ///< File offset of the frame.
    };

    /** Cursor state before record k * kDtrSeekStride (24 B). */
    struct Checkpoint
    {
        const unsigned char *pos;   ///< The record's first byte.
        std::uint64_t prevAddr;     ///< Address before the record.
        std::uint32_t block;        ///< Index into blocks_.
        std::uint32_t leftInBlock;  ///< Records from it to block end.
    };

    void parse();
    /** Decode every record once: throw unless each block holds exactly
     *  `count` records ending at its payload end, and fill
     *  checkpoints_. */
    void indexRecords();

    std::string path_;
    const unsigned char *data_ = nullptr;
    std::size_t size_ = 0;

    std::string name_;
    std::uint64_t baseSeed_ = 0;
    std::uint64_t recordCount_ = 0;
    std::vector<BlockRef> blocks_;
    std::vector<Checkpoint> checkpoints_;
};

} // namespace dapper

#endif // DAPPER_TRACE_DTR_HH
