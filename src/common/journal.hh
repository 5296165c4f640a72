/**
 * @file
 * Crash-safe append-only journal: checksummed, length-prefixed records.
 *
 * The fleet campaign runner (src/sim/fleet/) streams one record per
 * finished scenario cell into a per-shard journal file. The format is
 * designed around one failure model: the writer can die (SIGKILL, OOM,
 * power budget) at *any* byte boundary, and the reader must recover
 * every record that was completely written while detecting — and
 * discarding — a torn tail. There is no in-place mutation and no
 * index; the file is the log.
 *
 * Record layout: one CRC frame (below) under the magic 0x4A4C4644
 * ("DFLJ") with a nonzero, app-defined type and at most 64 MB payload.
 *
 * Writers build the whole frame in memory and append it with a single
 * write() on an O_APPEND descriptor — so concurrent appenders (the
 * coordinator adding tombstones while a worker adds results) interleave
 * only at record granularity, never inside one. Readers scan from the
 * start; the first offset where the frame or the journal's type and
 * length rules do not hold terminates the scan, and
 * recoverJournalFile() truncates the file there. A record is therefore
 * durable-in-order: if record N is readable, records 0..N-1 are too.
 *
 * fsync is deliberately NOT issued per record: process death (the
 * failure the fleet defends against) does not lose page-cache writes,
 * only whole-machine power loss does, and campaigns can be re-run from
 * the last machine-durable prefix in that case. JournalWriter::sync()
 * exists for callers that want the stronger guarantee.
 */

#ifndef DAPPER_COMMON_JOURNAL_HH
#define DAPPER_COMMON_JOURNAL_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dapper {

/** IEEE CRC-32 (polynomial 0xEDB88320) of @p size bytes at @p data,
 *  continuing from @p seed (pass the previous return value to chain). */
std::uint32_t crc32(const void *data, std::size_t size,
                    std::uint32_t seed = 0);

// ---------------------------------------------------------------------
// CRC frames: the one on-disk framing shared by journals and DTR traces
// (src/trace/dtr.hh). All integers little-endian:
//
//   u32  magic     format tag chosen by the caller
//   u8   type      record / block type
//   u32  length    payload byte count
//   u32  crc32     IEEE CRC-32 over [type, length, payload]
//   u8[] payload
// ---------------------------------------------------------------------

/** Frame @p payload under @p magic and @p type. */
std::string encodeFrame(std::uint32_t magic, std::uint8_t type,
                        const std::string &payload);

/** One CRC-valid frame, pointing into the scanned buffer (no copy). */
struct FrameView
{
    std::size_t offset = 0; ///< Offset of the frame's magic.
    std::uint8_t type = 0;
    const unsigned char *payload = nullptr;
    std::uint32_t length = 0;
};

struct FrameScan
{
    std::vector<FrameView> frames; ///< Valid frames, in file order.
    /// Offset of the first invalid frame; the buffer size when every
    /// byte belongs to a valid frame.
    std::size_t stopOffset = 0;
    /// Why the frame at stopOffset is invalid; nullptr on a clean scan.
    const char *stopReason = nullptr;
};

/** Scan @p size bytes at @p data as back-to-back frames under @p magic,
 *  up to the first frame whose header is cut short, whose magic is
 *  wrong, whose length runs past the end, or whose CRC fails. */
FrameScan scanFrames(const void *data, std::size_t size,
                     std::uint32_t magic);

/** write() all @p size bytes to @p fd, continuing after EINTR and short
 *  writes; false (errno set) on any other failure. */
bool writeFully(int fd, const void *data, std::size_t size);

// ---------------------------------------------------------------------
// Little-endian byte buffer helpers (journal payload encode / decode).
// ---------------------------------------------------------------------

class ByteWriter
{
  public:
    void putU8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
    void putU32(std::uint32_t v);
    void putU64(std::uint64_t v);
    /** Bit-exact double transport (no text round-trip). */
    void putF64(double v);
    /** u32 length prefix + raw bytes. */
    void putString(const std::string &s);

    const std::string &bytes() const { return bytes_; }
    std::string take() { return std::move(bytes_); }

  private:
    std::string bytes_;
};

/** Sequential reader over an encoded payload. Every accessor throws
 *  std::runtime_error on truncation — a payload that passed its CRC but
 *  does not decode is a format-version bug, not silent data. */
class ByteReader
{
  public:
    ByteReader(const void *data, std::size_t size)
        : data_(static_cast<const unsigned char *>(data)), size_(size)
    {
    }

    explicit ByteReader(const std::string &bytes)
        : ByteReader(bytes.data(), bytes.size())
    {
    }

    std::uint8_t getU8();
    std::uint32_t getU32();
    std::uint64_t getU64();
    double getF64();
    std::string getString();

    std::size_t remaining() const { return size_ - pos_; }
    bool done() const { return pos_ == size_; }

  private:
    void need(std::size_t n) const;

    const unsigned char *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// Journal records.
// ---------------------------------------------------------------------

struct JournalRecord
{
    std::uint8_t type = 0;
    std::string payload;
};

/** Result of scanning a journal byte stream / file. */
struct JournalScan
{
    std::vector<JournalRecord> records; ///< Complete, CRC-valid records.
    std::uint64_t validBytes = 0; ///< Offset where the valid prefix ends.
    bool torn = false; ///< Trailing bytes past validBytes were invalid.
};

/** Frame one record under the journal magic into a byte string. */
std::string encodeJournalRecord(std::uint8_t type,
                                const std::string &payload);

/** Scan an in-memory journal image (unit tests / embedded use). */
JournalScan scanJournalBytes(const void *data, std::size_t size);

/** Scan a journal file. A missing file scans as empty (not an error);
 *  any other I/O failure throws std::runtime_error. */
JournalScan scanJournalFile(const std::string &path);

/**
 * Scan @p path and, when a torn tail is present, truncate the file to
 * its valid prefix so subsequent appends produce a well-formed journal
 * again. Returns the scan (post-truncation state). Throws
 * std::runtime_error when truncation fails. Only call once no other
 * process is appending to the file.
 */
JournalScan recoverJournalFile(const std::string &path);

/**
 * Append-only record writer. append() frames the record in memory and
 * writes it with writeFully() on an O_APPEND fd (a crash mid-
 * continuation leaves a torn tail, which is exactly what readers
 * recover from).
 */
class JournalWriter
{
  public:
    JournalWriter() = default;
    ~JournalWriter();

    JournalWriter(const JournalWriter &) = delete;
    JournalWriter &operator=(const JournalWriter &) = delete;

    /** Open (creating if absent) for appending; throws on failure. */
    void open(const std::string &path);
    bool isOpen() const { return fd_ >= 0; }
    void close();

    /** Append one record; throws std::runtime_error on I/O failure. */
    void append(std::uint8_t type, const std::string &payload);

    /** fdatasync the file (power-loss durability, see file comment). */
    void sync();

  private:
    int fd_ = -1;
    std::string path_;
};

} // namespace dapper

#endif // DAPPER_COMMON_JOURNAL_HH
