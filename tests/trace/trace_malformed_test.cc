/**
 * @file
 * Malformed-input tests for the trace readers: truncated binaries,
 * bad magic/version, corrupt record kinds and garbage text lines
 * must all surface as recoverable RunErrors, never aborts.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "trace/trace_io.hh"

namespace ibp {
namespace {

std::string
validBinaryTrace()
{
    Trace trace("sample");
    trace.setSeed(7);
    trace.append({0x1000, 0x2000, BranchKind::IndirectCall, true});
    trace.append({0x1004, 0x3000, BranchKind::IndirectJump, true});
    std::ostringstream out(std::ios::binary);
    EXPECT_TRUE(writeTraceBinary(trace, out).ok());
    return out.str();
}

Result<Trace>
readBinary(const std::string &bytes)
{
    std::istringstream in(bytes, std::ios::binary);
    return readTraceBinary(in);
}

TEST(TraceMalformed, BadMagicIsAnError)
{
    const auto result = readBinary("NOPE-this-is-not-a-trace");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().kind, ErrorKind::Permanent);
    EXPECT_NE(result.error().message.find("bad magic"),
              std::string::npos);
}

TEST(TraceMalformed, EmptyStreamIsAnError)
{
    const auto result = readBinary("");
    ASSERT_FALSE(result.ok());
}

TEST(TraceMalformed, BadVersionIsAnError)
{
    std::string bytes = validBinaryTrace();
    bytes[4] = static_cast<char>(0xee); // version field
    const auto result = readBinary(bytes);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().message.find("unsupported trace version"),
              std::string::npos);
}

TEST(TraceMalformed, TruncationAnywhereIsAnError)
{
    const std::string bytes = validBinaryTrace();
    // Every proper prefix must fail cleanly - header, name, or
    // record boundary, no matter where the file was cut.
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        const auto result = readBinary(bytes.substr(0, cut));
        EXPECT_FALSE(result.ok()) << "prefix of " << cut
                                  << " bytes parsed successfully";
    }
    EXPECT_TRUE(readBinary(bytes).ok());
}

TEST(TraceMalformed, TrailingBytesAreAnError)
{
    // The record count ends the trace; a byte after the last record
    // is damage, never silently dropped.
    const auto result = readBinary(validBinaryTrace() + "x");
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().message.find("trailing bytes"),
              std::string::npos);
}

TEST(TraceMalformed, BadKindByteIsAnError)
{
    std::string bytes = validBinaryTrace();
    // Last byte of the stream is the flags byte of the final record;
    // kind lives in the low 7 bits.
    bytes[bytes.size() - 1] = 0x55;
    const auto result = readBinary(bytes);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().message.find("bad branch kind"),
              std::string::npos);
}

TEST(TraceMalformed, ImplausibleNameLengthIsAnError)
{
    std::string bytes = validBinaryTrace();
    // Name length field sits after magic (4) + version (4) + seed (8).
    bytes[16] = static_cast<char>(0xff);
    bytes[17] = static_cast<char>(0xff);
    const auto result = readBinary(bytes);
    ASSERT_FALSE(result.ok());
}

TEST(TraceMalformed, HugeRecordCountIsAnErrorNotAnAllocation)
{
    // Regression test: the record count is attacker-controlled input
    // and used to reach reserve() unvalidated, so a corrupt header
    // could demand a multi-exabyte allocation and abort the process.
    // It must be rejected against the bytes actually remaining.
    std::string bytes = validBinaryTrace();
    // Count field sits after magic (4) + version (4) + seed (8) +
    // name length (4) + name ("sample", 6 bytes).
    const std::size_t count_at = 26;
    for (std::size_t i = 0; i < 8; ++i)
        bytes[count_at + i] = static_cast<char>(0xff);
    const auto result = readBinary(bytes);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().kind, ErrorKind::Permanent);
    EXPECT_NE(result.error().message.find("exceeds"),
              std::string::npos);
}

TEST(TraceMalformed, CountLargerThanBodyIsAnError)
{
    // Off-by-one flavour: claiming even one more record than the
    // stream holds must fail up front, not mid-parse.
    std::string bytes = validBinaryTrace();
    const std::size_t count_at = 26;
    bytes[count_at] = 3; // file holds 2 records
    const auto result = readBinary(bytes);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().message.find("exceeds"),
              std::string::npos);
}

TEST(TraceMalformed, GarbageTextLineIsAnError)
{
    std::istringstream in("icall 0x10 0x20 1\nthis is not a record\n");
    const auto result = readTraceText(in);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().kind, ErrorKind::Permanent);
    EXPECT_NE(result.error().message.find("line 2"),
              std::string::npos);
}

TEST(TraceMalformed, NonNumericAddressIsAnError)
{
    std::istringstream in("icall 0xZZ 0x20 1\n");
    const auto result = readTraceText(in);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().message.find("malformed address"),
              std::string::npos);
}

TEST(TraceMalformed, OversizedAddressIsAnErrorNotATruncation)
{
    // Regression test: strtoull's ERANGE went unchecked and values
    // wider than Addr were silently truncated, so a 33-bit address
    // used to alias a different 32-bit one instead of failing.
    std::istringstream in("icall 0x1ffffffff 0x20 1\n");
    const auto result = readTraceText(in);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().message.find("out of range"),
              std::string::npos);
}

TEST(TraceMalformed, ErangeAddressIsAnError)
{
    // Wider than unsigned long long itself: strtoull reports ERANGE
    // and clamps to ULLONG_MAX, which must not parse either.
    std::istringstream in(
        "icall 0xffffffffffffffffffff 0x20 1\n");
    const auto result = readTraceText(in);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().message.find("out of range"),
              std::string::npos);
}

TEST(TraceMalformed, MaxAddressStillParses)
{
    std::istringstream in("icall 0xffffffff 0x20 1\n");
    const auto result = readTraceText(in);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value()[0].pc, 0xffffffffu);
}

TEST(TraceMalformed, UnknownKindNameIsAnError)
{
    std::istringstream in("teleport 0x10 0x20 1\n");
    const auto result = readTraceText(in);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().message.find("bad branch kind"),
              std::string::npos);
}

TEST(TraceMalformed, LoadTracePrefixesPathOnError)
{
    const std::string path =
        testing::TempDir() + "/ibp_bad_trace.ibpt";
    std::ofstream(path, std::ios::binary) << "junk";
    const auto result = loadTrace(path);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().message.find(path), std::string::npos);
}

TEST(TraceMalformed, MissingFileIsAnError)
{
    const auto result =
        loadTrace(testing::TempDir() + "/ibp_no_such_trace.ibpt");
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().message.find("cannot open"),
              std::string::npos);
}

} // namespace
} // namespace ibp
