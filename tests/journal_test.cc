/**
 * @file
 * Journal format tests: CRC-32 vectors, ByteWriter/ByteReader
 * round-trips (including bit-exact doubles), the CRC frame codec shared
 * with DTR traces, record framing, the
 * durable-in-order scan contract, and torn-tail recovery — a journal
 * truncated at EVERY possible byte offset must recover exactly its
 * complete-record prefix, because a SIGKILLed fleet worker can die at
 * any point of an append.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/common/journal.hh"
#include "src/trace/dtr.hh"

namespace dapper {
namespace {

/** Temp file path that cleans up after itself. */
class TempFile
{
  public:
    TempFile()
    {
        char name[] = "/tmp/dapper_journal_test_XXXXXX";
        const int fd = ::mkstemp(name);
        EXPECT_GE(fd, 0);
        ::close(fd);
        path_ = name;
    }

    ~TempFile() { std::remove(path_.c_str()); }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

void
writeFileBytes(const std::string &path, const std::string &bytes)
{
    std::FILE *out = std::fopen(path.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), out),
              bytes.size());
    std::fclose(out);
}

std::string
readFileBytes(const std::string &path)
{
    std::FILE *in = std::fopen(path.c_str(), "rb");
    EXPECT_NE(in, nullptr);
    std::string bytes;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0)
        bytes.append(buf, n);
    std::fclose(in);
    return bytes;
}

TEST(Crc32, KnownVectorsAndChaining)
{
    // The canonical IEEE CRC-32 check value.
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(crc32("", 0), 0x00000000u);
    // Chaining via the seed equals one shot over the concatenation.
    const std::uint32_t part = crc32("12345", 5);
    EXPECT_EQ(crc32("6789", 4, part), 0xCBF43926u);
}

TEST(ByteCodec, RoundTripsAllTypes)
{
    ByteWriter w;
    w.putU8(0xAB);
    w.putU32(0xDEADBEEFu);
    w.putU64(0x0123456789ABCDEFull);
    w.putF64(-0.1); // Not exactly representable: must survive bit-exact.
    w.putF64(1.0 / 3.0);
    w.putString("hello|world");
    w.putString("");

    ByteReader r(w.bytes());
    EXPECT_EQ(r.getU8(), 0xAB);
    EXPECT_EQ(r.getU32(), 0xDEADBEEFu);
    EXPECT_EQ(r.getU64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.getF64(), -0.1);
    EXPECT_EQ(r.getF64(), 1.0 / 3.0);
    EXPECT_EQ(r.getString(), "hello|world");
    EXPECT_EQ(r.getString(), "");
    EXPECT_TRUE(r.done());
}

TEST(ByteCodec, ReaderThrowsOnTruncation)
{
    ByteWriter w;
    w.putU64(42);
    ByteReader r(w.bytes().data(), 4); // Half a u64.
    EXPECT_THROW(r.getU64(), std::runtime_error);

    ByteWriter w2;
    w2.putString("abcdef");
    // Length prefix says 6 but cut the payload short.
    ByteReader r2(w2.bytes().data(), w2.bytes().size() - 2);
    EXPECT_THROW(r2.getString(), std::runtime_error);
}

TEST(Frame, EncodeScanRoundTripPointsIntoTheBuffer)
{
    constexpr std::uint32_t kMagic = 0x12345678u;
    const std::string image =
        encodeFrame(kMagic, 3, "abc") + encodeFrame(kMagic, 9, "");
    // magic(4) type(1) length(4) crc(4), then the payload.
    ASSERT_EQ(image.size(), 13u + 3u + 13u);
    const auto *bytes = reinterpret_cast<const unsigned char *>(image.data());
    std::uint32_t storedCrc = 0;
    for (int i = 3; i >= 0; --i)
        storedCrc = storedCrc << 8 | bytes[9 + i];
    EXPECT_EQ(storedCrc, crc32(bytes + 13, 3, crc32(bytes + 4, 5)));

    const FrameScan scan = scanFrames(image.data(), image.size(), kMagic);
    EXPECT_EQ(scan.stopReason, nullptr);
    EXPECT_EQ(scan.stopOffset, image.size());
    ASSERT_EQ(scan.frames.size(), 2u);
    EXPECT_EQ(scan.frames[0].offset, 0u);
    EXPECT_EQ(scan.frames[0].type, 3);
    EXPECT_EQ(scan.frames[0].payload, bytes + 13);
    EXPECT_EQ(scan.frames[0].length, 3u);
    EXPECT_EQ(scan.frames[1].offset, 16u);
    EXPECT_EQ(scan.frames[1].type, 9);
    EXPECT_EQ(scan.frames[1].length, 0u);

    // A journal record is exactly a frame under the journal magic.
    EXPECT_EQ(encodeJournalRecord(5, "x"), encodeFrame(0x4A4C4644u, 5, "x"));
}

TEST(Frame, ScanStopsAtTheBadFrameWithDistinctReasons)
{
    constexpr std::uint32_t kMagic = 0x12345678u;
    const std::string good = encodeFrame(kMagic, 1, "good");
    const std::string next = encodeFrame(kMagic, 2, "payload");
    std::string flipped = good + next;
    flipped[good.size() + 9] ^= 0x01; // One bit of the stored CRC.
    const std::vector<std::string> images = {
        good + next.substr(0, 12),              // Header cut short.
        good + next.substr(0, next.size() - 1), // Length past the end.
        flipped,
        good + encodeFrame(kMagic + 1, 2, "payload"),
    };
    std::set<std::string> reasons;
    for (const std::string &image : images) {
        const FrameScan scan =
            scanFrames(image.data(), image.size(), kMagic);
        ASSERT_EQ(scan.frames.size(), 1u);
        EXPECT_EQ(scan.frames[0].length, 4u);
        EXPECT_EQ(scan.stopOffset, good.size());
        ASSERT_NE(scan.stopReason, nullptr);
        reasons.insert(scan.stopReason);
    }
    EXPECT_EQ(reasons.size(), images.size());
}

TEST(Journal, EncodeScanRoundTrip)
{
    std::string image = encodeJournalRecord(1, "first");
    image += encodeJournalRecord(2, "");
    image += encodeJournalRecord(7, std::string(1000, 'x'));

    const JournalScan scan = scanJournalBytes(image.data(), image.size());
    EXPECT_FALSE(scan.torn);
    EXPECT_EQ(scan.validBytes, image.size());
    ASSERT_EQ(scan.records.size(), 3u);
    EXPECT_EQ(scan.records[0].type, 1);
    EXPECT_EQ(scan.records[0].payload, "first");
    EXPECT_EQ(scan.records[1].type, 2);
    EXPECT_EQ(scan.records[1].payload, "");
    EXPECT_EQ(scan.records[2].type, 7);
    EXPECT_EQ(scan.records[2].payload.size(), 1000u);
}

TEST(Journal, ScanStopsAtCorruptedRecord)
{
    std::string image = encodeJournalRecord(1, "good");
    const std::size_t firstEnd = image.size();
    image += encodeJournalRecord(2, "flipped");
    image[firstEnd + 14] ^= 0x01; // Flip one payload bit of record 2.
    image += encodeJournalRecord(3, "after");

    // Durable-in-order: the flip costs record 2 AND everything after.
    const JournalScan scan = scanJournalBytes(image.data(), image.size());
    EXPECT_TRUE(scan.torn);
    EXPECT_EQ(scan.validBytes, firstEnd);
    ASSERT_EQ(scan.records.size(), 1u);
    EXPECT_EQ(scan.records[0].payload, "good");
}

TEST(Journal, TornTailAtEveryOffsetRecoversThePrefix)
{
    const std::vector<std::string> payloads = {"alpha", "", "gamma-gamma"};
    std::string image;
    std::vector<std::size_t> ends; // Offset after each complete record.
    for (std::size_t i = 0; i < payloads.size(); ++i) {
        image += encodeJournalRecord(static_cast<std::uint8_t>(i + 1),
                                     payloads[i]);
        ends.push_back(image.size());
    }

    for (std::size_t cut = 0; cut <= image.size(); ++cut) {
        const JournalScan scan = scanJournalBytes(image.data(), cut);
        std::size_t expect = 0;
        while (expect < ends.size() && ends[expect] <= cut)
            ++expect;
        ASSERT_EQ(scan.records.size(), expect) << "cut at " << cut;
        EXPECT_EQ(scan.validBytes,
                  expect == 0 ? 0 : ends[expect - 1])
            << "cut at " << cut;
        EXPECT_EQ(scan.torn, cut != scan.validBytes) << "cut at " << cut;
    }
}

TEST(Journal, RecoverTruncatesFileToValidPrefix)
{
    TempFile file;
    std::string image = encodeJournalRecord(1, "keep-me");
    const std::size_t keep = image.size();
    image += encodeJournalRecord(2, "torn-record");
    image.resize(image.size() - 3); // Simulate SIGKILL mid-append.
    writeFileBytes(file.path(), image);

    // Pre-recovery the tail reads as torn; recovery truncates it and
    // reports the post-truncation (clean) state.
    EXPECT_TRUE(scanJournalFile(file.path()).torn);
    const JournalScan scan = recoverJournalFile(file.path());
    EXPECT_FALSE(scan.torn);
    ASSERT_EQ(scan.records.size(), 1u);
    EXPECT_EQ(scan.records[0].payload, "keep-me");
    EXPECT_EQ(readFileBytes(file.path()).size(), keep);

    // Post-recovery appends produce a well-formed journal again.
    JournalWriter writer;
    writer.open(file.path());
    writer.append(3, "appended-after-recovery");
    writer.close();
    const JournalScan rescan = scanJournalFile(file.path());
    EXPECT_FALSE(rescan.torn);
    ASSERT_EQ(rescan.records.size(), 2u);
    EXPECT_EQ(rescan.records[1].payload, "appended-after-recovery");
}

TEST(Journal, MissingFileScansEmptyAndWriterCreates)
{
    const std::string path = "/tmp/dapper_journal_test_missing_file";
    std::remove(path.c_str());
    const JournalScan scan = scanJournalFile(path);
    EXPECT_TRUE(scan.records.empty());
    EXPECT_FALSE(scan.torn);

    JournalWriter writer;
    writer.open(path);
    EXPECT_TRUE(writer.isOpen());
    writer.append(9, "created");
    writer.sync();
    writer.close();
    EXPECT_FALSE(writer.isOpen());
    const JournalScan rescan = scanJournalFile(path);
    ASSERT_EQ(rescan.records.size(), 1u);
    EXPECT_EQ(rescan.records[0].type, 9);
    std::remove(path.c_str());
}

TEST(Journal, GarbageLeadingBytesScanAsTornEmpty)
{
    const std::string garbage = "this is not a journal at all";
    const JournalScan scan =
        scanJournalBytes(garbage.data(), garbage.size());
    EXPECT_TRUE(scan.torn);
    EXPECT_EQ(scan.validBytes, 0u);
    EXPECT_TRUE(scan.records.empty());
}

TEST(Journal, DtrBlockEndsTheScanAtItsOffset)
{
    // Journals and DTR traces share the frame codec: only the magic
    // keeps a well-framed DTR block from reading as a journal record.
    std::string image = encodeJournalRecord(1, "first");
    image += encodeJournalRecord(2, "second");
    const std::size_t journalEnd = image.size();
    image += encodeDtrBlock(DtrBlock::Data, "trace block");
    image += encodeJournalRecord(3, "after");

    const JournalScan scan = scanJournalBytes(image.data(), image.size());
    EXPECT_TRUE(scan.torn);
    EXPECT_EQ(scan.validBytes, journalEnd);
    ASSERT_EQ(scan.records.size(), 2u);
    EXPECT_EQ(scan.records[0].payload, "first");
    EXPECT_EQ(scan.records[1].payload, "second");
}

} // namespace
} // namespace dapper
