#include "src/trace/dtr.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "src/common/journal.hh"

namespace dapper {

void
dtrPutVarint(std::string &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<char>((v & 0x7F) | 0x80));
        v >>= 7;
    }
    out.push_back(static_cast<char>(v));
}

std::uint64_t
dtrGetVarint(const unsigned char *&p, const unsigned char *end)
{
    std::uint64_t value = 0;
    int shift = 0;
    while (true) {
        if (p == end)
            throw DtrError("varint overruns its block payload");
        const unsigned char byte = *p++;
        if (shift == 63 && (byte & 0x7E) != 0)
            throw DtrError("varint exceeds 64 bits");
        value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
        if ((byte & 0x80) == 0)
            return value;
        shift += 7;
        if (shift > 63)
            throw DtrError("varint exceeds 64 bits");
    }
}

std::string
encodeDtrBlock(DtrBlock type, const std::string &payload)
{
    return encodeFrame(kDtrMagic, static_cast<std::uint8_t>(type),
                       payload);
}

// ---------------------------------------------------------------------
// TraceWriter.
// ---------------------------------------------------------------------

TraceWriter::TraceWriter(const std::string &path, const std::string &name,
                         std::uint64_t baseSeed,
                         std::uint32_t recordsPerBlock)
    : path_(path), name_(name), baseSeed_(baseSeed),
      recordsPerBlock_(recordsPerBlock == 0 ? 1 : recordsPerBlock)
{
    file_ = std::fopen(path.c_str(), "wb+");
    if (file_ == nullptr)
        throw DtrError("cannot open '" + path +
                       "' for writing: " + std::strerror(errno));
    // Placeholder header; close() patches the counts in place (the
    // payload length is count-independent, so the frame size is stable).
    const std::string frame =
        encodeDtrBlock(DtrBlock::Header, headerPayload());
    if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size())
        throw DtrError("short write on '" + path + "'");
}

TraceWriter::~TraceWriter()
{
    if (file_ != nullptr) {
        try {
            close();
        } catch (...) {
            std::fclose(file_);
            file_ = nullptr;
        }
    }
}

std::string
TraceWriter::headerPayload() const
{
    ByteWriter payload;
    payload.putU32(kDtrVersion);
    payload.putU64(baseSeed_);
    payload.putU64(recordCount_);
    payload.putU32(blockCount_);
    payload.putString(name_);
    return payload.take();
}

void
TraceWriter::append(const TraceRecord &rec)
{
    if (file_ == nullptr)
        throw DtrError("append on a closed TraceWriter");
    if (blockRecords_ == 0)
        blockPrevAddr_ = lastAddr_;
    const std::uint64_t meta =
        (static_cast<std::uint64_t>(rec.bubbles) << 2) |
        (rec.bypassLlc ? 2u : 0u) | (rec.isWrite ? 1u : 0u);
    dtrPutVarint(blockBody_, meta);
    dtrPutVarint(blockBody_,
                 dtrZigzagEncode(static_cast<std::int64_t>(
                     rec.addr - lastAddr_)));
    lastAddr_ = rec.addr;
    ++blockRecords_;
    ++recordCount_;
    if (blockRecords_ >= recordsPerBlock_)
        flushBlock();
}

void
TraceWriter::flushBlock()
{
    if (blockRecords_ == 0)
        return;
    ByteWriter payload;
    payload.putU64(blockPrevAddr_);
    payload.putU32(blockRecords_);
    std::string body = payload.take();
    body += blockBody_;
    const std::string frame = encodeDtrBlock(DtrBlock::Data, body);
    if (std::fwrite(frame.data(), 1, frame.size(), file_) !=
        frame.size())
        throw DtrError("short write on '" + path_ + "'");
    blockBody_.clear();
    blockRecords_ = 0;
    ++blockCount_;
}

void
TraceWriter::close()
{
    if (file_ == nullptr)
        return;
    flushBlock();
    const std::string header =
        encodeDtrBlock(DtrBlock::Header, headerPayload());
    if (std::fseek(file_, 0, SEEK_SET) != 0 ||
        std::fwrite(header.data(), 1, header.size(), file_) !=
            header.size() ||
        std::fclose(file_) != 0) {
        std::fclose(file_);
        file_ = nullptr;
        throw DtrError("cannot finalize '" + path_ + "'");
    }
    file_ = nullptr;
}

// ---------------------------------------------------------------------
// TraceReader.
// ---------------------------------------------------------------------

TraceReader::TraceReader(const std::string &path) : path_(path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        throw std::runtime_error("dtr: cannot open '" + path +
                                 "': " + std::strerror(errno));
    struct stat st;
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        throw std::runtime_error("dtr: cannot stat '" + path + "'");
    }
    size_ = static_cast<std::size_t>(st.st_size);
    if (size_ > 0) {
        void *map = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
        if (map == MAP_FAILED) {
            ::close(fd);
            throw std::runtime_error("dtr: cannot mmap '" + path +
                                     "': " + std::strerror(errno));
        }
        data_ = static_cast<const unsigned char *>(map);
    }
    ::close(fd);
    try {
        parse();
    } catch (...) {
        if (data_ != nullptr)
            ::munmap(const_cast<unsigned char *>(data_), size_);
        throw;
    }
}

TraceReader::~TraceReader()
{
    if (data_ != nullptr)
        ::munmap(const_cast<unsigned char *>(data_), size_);
}

void
TraceReader::parse()
{
    const FrameScan scan = scanFrames(data_, size_, kDtrMagic);
    bool sawHeader = false;
    std::uint32_t headerBlocks = 0;
    std::uint64_t index = 0;
    auto decode = [&](const FrameView &frame) {
        ByteReader reader(frame.payload, frame.length);
        if (frame.type == static_cast<std::uint8_t>(DtrBlock::Header)) {
            if (sawHeader)
                throw DtrError("duplicate header block");
            if (frame.offset != 0)
                throw DtrError("header block is not first");
            sawHeader = true;
            const std::uint32_t version = reader.getU32();
            if (version != kDtrVersion)
                throw DtrError("unsupported format version " +
                               std::to_string(version) + " (expected " +
                               std::to_string(kDtrVersion) + ")");
            baseSeed_ = reader.getU64();
            recordCount_ = reader.getU64();
            headerBlocks = reader.getU32();
            name_ = reader.getString();
            if (!reader.done())
                throw DtrError("trailing bytes in header payload");
        } else if (frame.type == static_cast<std::uint8_t>(DtrBlock::Data)) {
            if (!sawHeader)
                throw DtrError("data block before header");
            BlockRef ref;
            ref.prevAddr = reader.getU64();
            ref.count = reader.getU32();
            if (ref.count == 0)
                throw DtrError("empty data block at offset " +
                               std::to_string(frame.offset));
            ref.records = frame.payload + (frame.length - reader.remaining());
            ref.end = frame.payload + frame.length;
            ref.offset = frame.offset;
            index += ref.count;
            blocks_.push_back(ref);
        } else {
            throw DtrError("unknown block type " +
                           std::to_string(frame.type) + " at offset " +
                           std::to_string(frame.offset));
        }
    };
    for (const FrameView &frame : scan.frames) {
        try {
            decode(frame);
        } catch (const DtrError &) {
            throw;
        } catch (const std::runtime_error &) {
            // ByteReader ran out: the CRC holds, the fields do not fit.
            throw DtrError("block at offset " +
                           std::to_string(frame.offset) +
                           ": payload too short for its fields");
        }
    }
    // A trace is immutable: any invalid frame, a torn tail included,
    // rejects the whole file.
    if (scan.stopReason != nullptr)
        throw DtrError("block at offset " +
                       std::to_string(scan.stopOffset) + ": " +
                       scan.stopReason);
    if (!sawHeader)
        throw DtrError("missing header block (empty or not a DTR file)");
    if (index != recordCount_)
        throw DtrError("header claims " + std::to_string(recordCount_) +
                       " records, data blocks hold " +
                       std::to_string(index));
    if (headerBlocks != blocks_.size())
        throw DtrError("header claims " + std::to_string(headerBlocks) +
                       " data blocks, file holds " +
                       std::to_string(blocks_.size()));
    indexRecords();
}

void
TraceReader::indexRecords()
{
    checkpoints_.reserve(
        static_cast<std::size_t>((recordCount_ + kDtrSeekStride - 1) /
                                 kDtrSeekStride));
    std::uint64_t index = 0;
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
        const BlockRef &ref = blocks_[b];
        auto fail = [&](const std::string &why) {
            throw DtrError("block at offset " + std::to_string(ref.offset) +
                           ": " + why);
        };
        const unsigned char *p = ref.records;
        std::uint64_t prevAddr = ref.prevAddr;
        for (std::uint32_t left = ref.count; left > 0; --left, ++index) {
            if (index % kDtrSeekStride == 0)
                checkpoints_.push_back(
                    {p, prevAddr, static_cast<std::uint32_t>(b), left});
            if (p == ref.end)
                fail("payload ends after " +
                     std::to_string(ref.count - left) + " of its " +
                     std::to_string(ref.count) + " records");
            try {
                dtrGetVarint(p, ref.end);
                prevAddr += static_cast<std::uint64_t>(
                    dtrZigzagDecode(dtrGetVarint(p, ref.end)));
            } catch (const DtrError &e) {
                // e.what() is "dtr: <reason>"; keep only the reason.
                fail(e.what() + std::strlen("dtr: "));
            }
        }
        if (p != ref.end)
            fail(std::to_string(ref.end - p) +
                 " trailing bytes after its last record");
    }
}

TraceReader::Cursor::Cursor(const TraceReader &reader,
                            std::uint64_t startIndex)
    : reader_(&reader)
{
    if (reader.recordCount() == 0)
        throw DtrError("cannot iterate an empty trace ('" +
                       reader.path() + "')");
    startIndex %= reader.recordCount();
    // Restore the checkpoint at or before startIndex, then decode the
    // at most kDtrSeekStride - 1 records up to it.
    const Checkpoint &cp = reader.checkpoints_[startIndex / kDtrSeekStride];
    block_ = cp.block;
    pos_ = cp.pos;
    end_ = reader.blocks_[cp.block].end;
    leftInBlock_ = cp.leftInBlock;
    prevAddr_ = cp.prevAddr;
    index_ = startIndex - startIndex % kDtrSeekStride;
    while (index_ < startIndex)
        next();
}

void
TraceReader::Cursor::enterBlock(std::size_t block)
{
    const BlockRef &ref = reader_->blocks_[block];
    block_ = block;
    pos_ = ref.records;
    end_ = ref.end;
    leftInBlock_ = ref.count;
    prevAddr_ = ref.prevAddr;
}

TraceRecord
TraceReader::Cursor::next()
{
    if (leftInBlock_ == 0) {
        // Block exhausted: advance, wrapping past the last block.
        enterBlock(block_ + 1 < reader_->blocks_.size() ? block_ + 1
                                                        : 0);
    }
    const std::uint64_t meta = dtrGetVarint(pos_, end_);
    const std::uint64_t delta = dtrGetVarint(pos_, end_);
    TraceRecord rec;
    rec.isWrite = (meta & 1) != 0;
    rec.bypassLlc = (meta & 2) != 0;
    rec.bubbles = static_cast<std::uint32_t>(meta >> 2);
    rec.addr = prevAddr_ + static_cast<std::uint64_t>(
                               dtrZigzagDecode(delta));
    prevAddr_ = rec.addr;
    --leftInBlock_;
    ++index_;
    if (index_ == reader_->recordCount())
        index_ = 0;
    return rec;
}

} // namespace dapper
