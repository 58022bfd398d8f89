/**
 * @file
 * Deterministic mutation fuzzing of the three trace readers: the
 * `.ibpm` v3 mmap loader, the `.ibpt` binary reader and the text
 * reader. Each loop starts from one valid encoding and applies
 * seeded byte flips, byte overwrites, truncations and extensions;
 * the v3 loop also rewrites header fields and restamps the header
 * checksum, so mutations get past it to the field checks behind it.
 *
 * Every mutated input must either fail cleanly or yield a trace
 * whose kinds are all <= BranchKind::Return and that re-encodes to
 * exactly the bytes it was read from. The text format is free-form
 * by design (comments, blank lines, any hex case, any non-zero taken
 * flag), so there the check is that the re-encoding is a fixed
 * point: it reads back as the same trace and re-encodes to itself.
 *
 * The sanitizer CI jobs run these loops under ASan+UBSan.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <string>

#include "trace/trace_io.hh"
#include "trace/trace_mmap.hh"
#include "util/bits.hh"

namespace ibp {
namespace {

constexpr unsigned kMutations = 1500;

/** Every kind, both taken values, a name and a seed. */
Trace
fuzzTrace()
{
    Trace trace("fuzz trace");
    trace.setSeed(0x5eed'f00dULL);
    trace.setSiteCountHint(7);
    for (unsigned i = 0; i < 40; ++i) {
        const auto kind = static_cast<BranchKind>(i % 5);
        trace.append({0x4000u + 4 * i, 0x9000u + 0x10 * (i % 7), kind,
                      kind != BranchKind::Conditional || i % 3 != 0});
    }
    return trace;
}

/** Kinds readable by the block classifier (core/simd.hh). */
bool
kindsInRange(const Trace &trace)
{
    for (const BranchRecord record : trace) {
        if (record.kind > BranchKind::Return)
            return false;
    }
    return true;
}

/** A seeded generic mutation: flip a bit, overwrite a byte,
 * truncate, or extend. */
std::string
mutate(const std::string &clean, std::mt19937_64 &rng)
{
    std::string bytes = clean;
    switch (rng() % 4) {
      case 0: {
        const std::size_t at = rng() % bytes.size();
        bytes[at] = static_cast<char>(bytes[at] ^ (1u << (rng() % 8)));
        break;
      }
      case 1:
        bytes[rng() % bytes.size()] = static_cast<char>(rng());
        break;
      case 2:
        bytes.resize(rng() % bytes.size());
        break;
      default: {
        const std::size_t extra = 1 + rng() % 16;
        for (std::size_t i = 0; i < extra; ++i)
            bytes.push_back(static_cast<char>(rng()));
        break;
      }
    }
    return bytes;
}

/** Restamp the v3 header checksum (FNV-1a of the first 80 bytes). */
void
restampV3(std::string &bytes)
{
    if (bytes.size() < 88)
        return;
    std::uint64_t words[10];
    std::memcpy(words, bytes.data(), 80);
    const std::uint64_t sum = fnv1a64(words, 10, 0xcbf29ce484222325ULL);
    std::memcpy(bytes.data() + 80, &sum, 8);
}

/** A v3 header mutation behind a valid checksum: one field set to a
 * random value or nudged by a small delta, or one header byte
 * flipped (padding included). */
std::string
mutateV3Header(const std::string &clean, std::mt19937_64 &rng)
{
    static constexpr std::size_t kU32Fields[] = {8, 12, 16, 20, 40, 44};
    static constexpr std::size_t kU64Fields[] = {24, 32, 48, 56, 64, 72};
    static constexpr std::int64_t kDeltas[] = {-64, -4, -1, 1, 4, 64};
    std::string bytes = clean;
    const std::int64_t delta = kDeltas[rng() % 6];
    switch (rng() % 3) {
      case 0: {
        const std::size_t at = kU32Fields[rng() % 6];
        std::uint32_t value = 0;
        std::memcpy(&value, bytes.data() + at, 4);
        value = rng() % 2 ? static_cast<std::uint32_t>(rng())
                          : static_cast<std::uint32_t>(value + delta);
        std::memcpy(bytes.data() + at, &value, 4);
        break;
      }
      case 1: {
        const std::size_t at = kU64Fields[rng() % 6];
        std::uint64_t value = 0;
        std::memcpy(&value, bytes.data() + at, 8);
        value = rng() % 2 ? rng() : value + delta;
        std::memcpy(bytes.data() + at, &value, 8);
        break;
      }
      default: {
        const std::size_t at = rng() % 128;
        bytes[at] = static_cast<char>(bytes[at] ^ (1u << (rng() % 8)));
        break;
      }
    }
    restampV3(bytes);
    return bytes;
}

/** Outcome tally of one loop; both must be non-zero for the loop to
 * have exercised the accept and the reject paths. */
struct Tally
{
    unsigned accepted = 0;
    unsigned rejected = 0;
};

/**
 * Run @p kMutations seeded mutations of @p clean through @p check,
 * which returns true when the reader accepted the input (and has
 * asserted the accepted trace's properties).
 */
Tally
fuzz(const std::string &clean, std::uint64_t seed,
     const std::function<std::string(const std::string &,
                                     std::mt19937_64 &)> &mutator,
     const std::function<bool(const std::string &)> &check)
{
    std::mt19937_64 rng(seed);
    Tally tally;
    for (unsigned i = 0; i < kMutations; ++i) {
        const std::string bytes = mutator(clean, rng);
        SCOPED_TRACE("mutation " + std::to_string(i));
        if (check(bytes))
            ++tally.accepted;
        else
            ++tally.rejected;
        if (::testing::Test::HasFailure())
            break;
    }
    return tally;
}

class TraceFuzzTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        _dir = testing::TempDir() + "/ibp_trace_fuzz_test";
        std::filesystem::remove_all(_dir);
        std::filesystem::create_directories(_dir);
    }
    void
    TearDown() override
    {
        std::filesystem::remove_all(_dir);
    }

    /** Load @p bytes through loadTraceMmap; on success require the
     * properties and return true. */
    bool
    checkV3(const std::string &bytes)
    {
        const std::string path = _dir + "/fuzz.ibpm";
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out.write(bytes.data(),
                      static_cast<std::streamsize>(bytes.size()));
        }
        const auto loaded = loadTraceMmap(path);
        if (!loaded.ok())
            return false;
        EXPECT_TRUE(kindsInRange(loaded.value()));
        const auto encoded = encodeTraceMmap(loaded.value());
        EXPECT_TRUE(encoded.ok());
        EXPECT_TRUE(encoded.ok() && encoded.value() == bytes);
        return true;
    }

    std::string _dir;
};

TEST_F(TraceFuzzTest, MmapLoaderSurvivesByteMutations)
{
    if (!traceMmapSupported())
        GTEST_SKIP() << "mmap traces unsupported on this platform";
    const std::string clean = encodeTraceMmap(fuzzTrace()).value();
    ASSERT_TRUE(checkV3(clean));
    const Tally tally =
        fuzz(clean, 1, mutate,
             [this](const std::string &bytes) { return checkV3(bytes); });
    EXPECT_GT(tally.accepted, 0u);
    EXPECT_GT(tally.rejected, 0u);
}

TEST_F(TraceFuzzTest, MmapLoaderSurvivesRestampedHeaderMutations)
{
    if (!traceMmapSupported())
        GTEST_SKIP() << "mmap traces unsupported on this platform";
    const std::string clean = encodeTraceMmap(fuzzTrace()).value();
    const Tally tally =
        fuzz(clean, 2, mutateV3Header,
             [this](const std::string &bytes) { return checkV3(bytes); });
    // Seed and site-hint rewrites stay valid; everything else is
    // caught by a field check behind the restamped checksum.
    EXPECT_GT(tally.accepted, 0u);
    EXPECT_GT(tally.rejected, 0u);
}

TEST(TraceFuzz, BinaryReaderSurvivesByteMutations)
{
    std::ostringstream out(std::ios::binary);
    ASSERT_TRUE(writeTraceBinary(fuzzTrace(), out).ok());
    const Tally tally = fuzz(out.str(), 3, mutate,
                             [](const std::string &bytes) {
        std::istringstream in(bytes, std::ios::binary);
        const auto loaded = readTraceBinary(in);
        if (!loaded.ok())
            return false;
        EXPECT_TRUE(kindsInRange(loaded.value()));
        std::ostringstream again(std::ios::binary);
        EXPECT_TRUE(writeTraceBinary(loaded.value(), again).ok());
        EXPECT_EQ(again.str(), bytes);
        return true;
    });
    EXPECT_GT(tally.accepted, 0u);
    EXPECT_GT(tally.rejected, 0u);
}

TEST(TraceFuzz, TextReaderSurvivesByteMutations)
{
    std::ostringstream out;
    ASSERT_TRUE(writeTraceText(fuzzTrace(), out).ok());
    const Tally tally = fuzz(out.str(), 4, mutate,
                             [](const std::string &bytes) {
        std::istringstream in(bytes);
        const auto loaded = readTraceText(in);
        if (!loaded.ok())
            return false;
        EXPECT_TRUE(kindsInRange(loaded.value()));
        std::ostringstream canonical;
        EXPECT_TRUE(writeTraceText(loaded.value(), canonical).ok());
        std::istringstream back_in(canonical.str());
        const auto back = readTraceText(back_in);
        EXPECT_TRUE(back.ok());
        if (back.ok()) {
            EXPECT_EQ(back.value(), loaded.value());
            std::ostringstream again;
            EXPECT_TRUE(writeTraceText(back.value(), again).ok());
            EXPECT_EQ(again.str(), canonical.str());
        }
        return true;
    });
    EXPECT_GT(tally.accepted, 0u);
    EXPECT_GT(tally.rejected, 0u);
}

} // namespace
} // namespace ibp
