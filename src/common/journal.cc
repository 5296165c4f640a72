#include "src/common/journal.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace dapper {

namespace {

constexpr std::uint32_t kJournalMagic = 0x4A4C4644u; // "DFLJ"
constexpr std::size_t kFrameHeaderBytes = 4 + 1 + 4 + 4;
/// Sanity bound: a single cell result is a few KB; anything past this
/// is a corrupt length field, not a record.
constexpr std::uint32_t kMaxPayload = 64u << 20;

std::uint32_t
loadU32(const unsigned char *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

[[noreturn]] void
throwErrno(const std::string &what, const std::string &path)
{
    throw std::runtime_error(what + " " + path + ": " +
                             std::strerror(errno));
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t size, std::uint32_t seed)
{
    // Table-driven IEEE CRC-32; table built once, thread-safe init.
    static const auto table = [] {
        std::uint32_t t[256];
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        struct Table
        {
            std::uint32_t v[256];
        } out{};
        std::memcpy(out.v, t, sizeof(t));
        return out;
    }();
    std::uint32_t crc = seed ^ 0xFFFFFFFFu;
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i)
        crc = table.v[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
    return crc ^ 0xFFFFFFFFu;
}

void
ByteWriter::putU32(std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
ByteWriter::putU64(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
ByteWriter::putF64(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(bits);
}

void
ByteWriter::putString(const std::string &s)
{
    putU32(static_cast<std::uint32_t>(s.size()));
    bytes_.append(s);
}

void
ByteReader::need(std::size_t n) const
{
    if (size_ - pos_ < n)
        throw std::runtime_error("journal payload truncated");
}

std::uint8_t
ByteReader::getU8()
{
    need(1);
    return data_[pos_++];
}

std::uint32_t
ByteReader::getU32()
{
    need(4);
    std::uint32_t v = loadU32(data_ + pos_);
    pos_ += 4;
    return v;
}

std::uint64_t
ByteReader::getU64()
{
    need(8);
    std::uint64_t v = loadU32(data_ + pos_);
    v |= static_cast<std::uint64_t>(loadU32(data_ + pos_ + 4)) << 32;
    pos_ += 8;
    return v;
}

double
ByteReader::getF64()
{
    const std::uint64_t bits = getU64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
ByteReader::getString()
{
    const std::uint32_t n = getU32();
    need(n);
    std::string s(reinterpret_cast<const char *>(data_ + pos_), n);
    pos_ += n;
    return s;
}

std::string
encodeFrame(std::uint32_t magic, std::uint8_t type,
            const std::string &payload)
{
    ByteWriter frame;
    frame.putU32(magic);
    frame.putU8(type);
    frame.putU32(static_cast<std::uint32_t>(payload.size()));
    // The CRC covers [type, length, payload]: the header bytes just
    // written after the magic, then the payload.
    const std::uint32_t crc = crc32(frame.bytes().data() + 4, 5);
    frame.putU32(crc32(payload.data(), payload.size(), crc));
    std::string bytes = frame.take();
    bytes.append(payload);
    return bytes;
}

FrameScan
scanFrames(const void *data, std::size_t size, std::uint32_t magic)
{
    FrameScan out;
    const auto *bytes = static_cast<const unsigned char *>(data);
    std::size_t pos = 0;
    while (pos < size) {
        const unsigned char *frame = bytes + pos;
        if (size - pos < kFrameHeaderBytes) {
            out.stopReason = "truncated frame header";
            break;
        }
        if (loadU32(frame) != magic) {
            out.stopReason = "bad magic";
            break;
        }
        const std::uint32_t length = loadU32(frame + 5);
        if (size - pos - kFrameHeaderBytes < length) {
            out.stopReason = "length runs past end of data";
            break;
        }
        const unsigned char *payload = frame + kFrameHeaderBytes;
        if (crc32(payload, length, crc32(frame + 4, 5)) !=
            loadU32(frame + 9)) {
            out.stopReason = "checksum mismatch";
            break;
        }
        out.frames.push_back({pos, frame[4], payload, length});
        pos += kFrameHeaderBytes + length;
    }
    out.stopOffset = pos;
    return out;
}

bool
writeFully(int fd, const void *data, std::size_t size)
{
    const auto *bytes = static_cast<const char *>(data);
    std::size_t done = 0;
    while (done < size) {
        const ssize_t n = ::write(fd, bytes + done, size - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        done += static_cast<std::size_t>(n);
    }
    return true;
}

std::string
encodeJournalRecord(std::uint8_t type, const std::string &payload)
{
    if (payload.size() > kMaxPayload)
        throw std::runtime_error("journal record payload too large");
    return encodeFrame(kJournalMagic, type, payload);
}

JournalScan
scanJournalBytes(const void *data, std::size_t size)
{
    const FrameScan frames = scanFrames(data, size, kJournalMagic);
    JournalScan out;
    out.validBytes = frames.stopOffset;
    for (const FrameView &frame : frames.frames) {
        if (frame.type == 0 || frame.length > kMaxPayload) {
            out.validBytes = frame.offset;
            break;
        }
        out.records.push_back(
            {frame.type,
             std::string(reinterpret_cast<const char *>(frame.payload),
                         frame.length)});
    }
    out.torn = out.validBytes != size;
    return out;
}

JournalScan
scanJournalFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        if (errno == ENOENT)
            return {};
        throwErrno("cannot open journal", path);
    }
    std::string bytes;
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.append(buf, n);
    const bool readError = std::ferror(f) != 0;
    std::fclose(f);
    if (readError)
        throwErrno("cannot read journal", path);
    return scanJournalBytes(bytes.data(), bytes.size());
}

JournalScan
recoverJournalFile(const std::string &path)
{
    JournalScan scan = scanJournalFile(path);
    if (scan.torn) {
        if (::truncate(path.c_str(),
                       static_cast<off_t>(scan.validBytes)) != 0)
            throwErrno("cannot truncate torn journal", path);
        scan.torn = false;
    }
    return scan;
}

JournalWriter::~JournalWriter()
{
    close();
}

void
JournalWriter::open(const std::string &path)
{
    close();
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                 0644);
    if (fd_ < 0)
        throwErrno("cannot open journal for append", path);
    path_ = path;
}

void
JournalWriter::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void
JournalWriter::append(std::uint8_t type, const std::string &payload)
{
    if (fd_ < 0)
        throw std::runtime_error("journal writer not open");
    const std::string frame = encodeJournalRecord(type, payload);
    if (!writeFully(fd_, frame.data(), frame.size()))
        throwErrno("cannot append to journal", path_);
}

void
JournalWriter::sync()
{
    if (fd_ >= 0 && ::fdatasync(fd_) != 0)
        throwErrno("cannot sync journal", path_);
}

} // namespace dapper
