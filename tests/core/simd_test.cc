/**
 * @file
 * Tests of the runtime SIMD dispatch layer (core/simd.hh): level
 * forcing, the vector tag scans, the block meta classifier and the
 * lane engine's pair-column scoring pinned against scalar oracles,
 * and the FlatMap group probe fuzzed
 * bit-identical across every dispatch level the CPU supports. These
 * are the guarantees the differential simulation tests build on:
 * for a given input every level must visit slots and records in
 * exactly the scalar order.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/flat_table.hh"
#include "core/hybrid.hh"
#include "core/simd.hh"
#include "core/two_level.hh"
#include "trace/branch_record.hh"
#include "util/rng.hh"

namespace ibp {
namespace {

/** Force a dispatch level for one scope, restoring on exit. */
class ScopedSimdLevel
{
  public:
    explicit ScopedSimdLevel(SimdLevel level) : _saved(simdLevel())
    {
        applied = setSimdLevelForTest(level);
    }
    ~ScopedSimdLevel() { setSimdLevelForTest(_saved); }

    SimdLevel applied;

  private:
    SimdLevel _saved;
};

/** Every level this CPU can execute, narrowest first. */
std::vector<SimdLevel>
supportedLevels()
{
    // Ask for the widest level and see what the clamp allows.
    const SimdLevel original = simdLevel();
    const SimdLevel widest = setSimdLevelForTest(SimdLevel::Avx2);
    setSimdLevelForTest(original);
    std::vector<SimdLevel> levels{SimdLevel::Scalar};
    if (widest >= SimdLevel::Sse2)
        levels.push_back(SimdLevel::Sse2);
    if (widest >= SimdLevel::Avx2)
        levels.push_back(SimdLevel::Avx2);
    return levels;
}

TEST(SimdDispatch, LevelNamesAreStable)
{
    EXPECT_STREQ(simdLevelName(SimdLevel::Scalar), "scalar");
    EXPECT_STREQ(simdLevelName(SimdLevel::Sse2), "sse2");
    EXPECT_STREQ(simdLevelName(SimdLevel::Avx2), "avx2");
}

TEST(SimdDispatch, ForcedLevelRoundTrips)
{
    for (const SimdLevel level : supportedLevels()) {
        ScopedSimdLevel forced(level);
        EXPECT_EQ(forced.applied, level);
        EXPECT_EQ(simdLevel(), level);
    }
}

TEST(SimdDispatch, ForcedScalarDisablesScatter)
{
    ScopedSimdLevel forced(SimdLevel::Scalar);
    // IBP_SIMD=off must force the whole engine scalar, including the
    // PDEP pattern scatter; the test hook models the same override.
    EXPECT_FALSE(simdScatterEnabled());
}

/** Scalar model of one 16/32-wide tag group scan. */
simd::TagGroup
scalarScan(const std::uint8_t *tags, std::uint8_t tag, unsigned width)
{
    simd::TagGroup group;
    for (unsigned i = 0; i < width; ++i) {
        group.matches |= (tags[i] == tag ? 1u : 0u) << i;
        group.empties |= (tags[i] == 0 ? 1u : 0u) << i;
    }
    return group;
}

TEST(SimdTagScan, GroupScansMatchScalarOracle)
{
    Rng rng(0x7a95eed);
    const bool have_avx2 = [] {
        const auto levels = supportedLevels();
        return levels.back() == SimdLevel::Avx2;
    }();
    for (unsigned round = 0; round < 2000; ++round) {
        std::uint8_t tags[32];
        for (auto &t : tags) {
            // Mix empties, the probe tag, and arbitrary other tags so
            // both masks exercise every lane position over the fuzz.
            const std::uint64_t roll = rng.nextBelow(4);
            t = roll == 0 ? 0
                          : static_cast<std::uint8_t>(
                                0x80u | rng.nextBelow(128));
        }
        const std::uint8_t probe = static_cast<std::uint8_t>(
            0x80u | rng.nextBelow(128));

        const simd::TagGroup narrow = simd::scanTags16(tags, probe);
        const simd::TagGroup narrow_ref =
            scalarScan(tags, probe, 16);
        EXPECT_EQ(narrow.matches, narrow_ref.matches);
        EXPECT_EQ(narrow.empties, narrow_ref.empties);

        if (have_avx2) {
            ScopedSimdLevel forced(SimdLevel::Avx2);
            const simd::TagGroup wide = simd::scanTags32(tags, probe);
            const simd::TagGroup wide_ref =
                scalarScan(tags, probe, 32);
            EXPECT_EQ(wide.matches, wide_ref.matches);
            EXPECT_EQ(wide.empties, wide_ref.empties);
        }
    }
}

TEST(SimdClassifyMeta, MatchesScalarOracleAcrossLevels)
{
    Rng rng(0xc1a55);
    const auto levels = supportedLevels();
    for (unsigned round = 0; round < 300; ++round) {
        // Lengths straddling every vector-width boundary, including
        // zero and ragged tails.
        const std::size_t count = rng.nextBelow(200);
        const std::uint32_t base =
            static_cast<std::uint32_t>(rng.nextBelow(1u << 20));
        const bool conditionals = rng.nextBool(0.5);
        std::vector<std::uint8_t> meta(count);
        for (auto &m : meta) {
            m = packBranchMeta(
                static_cast<BranchKind>(rng.nextBelow(5)),
                rng.nextBool(0.5));
        }

        std::vector<std::uint32_t> expected;
        for (std::size_t i = 0; i < count; ++i) {
            const BranchKind kind = branchMetaKind(meta[i]);
            if (branchMetaIsPredictedIndirect(meta[i]) ||
                (conditionals && kind == BranchKind::Conditional)) {
                expected.push_back(base +
                                   static_cast<std::uint32_t>(i));
            }
        }

        for (const SimdLevel level : levels) {
            ScopedSimdLevel forced(level);
            std::vector<std::uint32_t> out(count);
            const std::size_t written = simd::classifyMeta(
                meta.data(), count, base, conditionals, out.data());
            out.resize(written);
            EXPECT_EQ(out, expected)
                << "level " << simdLevelName(level) << " count "
                << count << " conditionals " << conditionals;
        }
    }
}

/** One member's outcome word for a drawn entry. */
std::uint32_t
drawnWord(Rng &rng, bool canBeValid, Addr actual, TableEntry &entry)
{
    entry.valid = canBeValid && rng.nextBool(0.8);
    entry.target = rng.nextBool(0.5) ? actual : actual + 4;
    entry.confidence =
        SatCounter(2, static_cast<unsigned>(rng.nextBelow(3)));
    return twoLevelOutcome(&entry, actual);
}

TEST(SimdScorePairStream, MatchesConfidenceChoiceOracleOverCountedSuffix)
{
    // Two member streams of every length 0..70 (each vector tail
    // length), reduced from three offsets: the whole stream, a
    // counted suffix, and an empty one. Confidences 0..2 make ranks
    // tie often; every fourth record has no valid member, and every
    // third length is a plain column (one stream as both members).
    constexpr Addr kActual = 0x4000;
    Rng rng(0x5c0de);
    std::uint64_t scored = 0;
    std::uint64_t missed = 0;
    std::uint64_t unpredicted = 0;
    std::uint64_t tie_flips = 0;
    for (std::size_t count = 0; count <= 70; ++count) {
        const bool plain = count % 3 == 0;
        std::vector<std::uint32_t> first(count);
        std::vector<std::uint32_t> second(count);
        std::vector<Prediction> answers(count);
        for (std::size_t r = 0; r < count; ++r) {
            TableEntry entries[2];
            const bool any_valid = r % 4 != 1;
            first[r] = drawnWord(rng, any_valid, kActual, entries[0]);
            second[r] = first[r];
            entries[1] = entries[0];
            if (!plain)
                second[r] = drawnWord(rng, any_valid, kActual, entries[1]);
            const Prediction members[2] = {twoLevelPrediction(&entries[0]),
                                           twoLevelPrediction(&entries[1])};
            const int chosen = confidenceChoice(
                2, [&members](unsigned k) -> const Prediction & {
                    return members[k];
                });
            answers[r] = chosen < 0 ? Prediction{} : members[chosen];
            // A tie the earlier member must win to be scored right.
            tie_flips += outcomeRank(first[r]) == outcomeRank(second[r]) &&
                         outcomeValid(first[r]) &&
                         outcomeCorrect(first[r]) != outcomeCorrect(second[r]);
        }
        for (const std::size_t start : {std::size_t{0}, count / 3, count}) {
            std::uint64_t oracle_misses = 0;
            std::uint64_t oracle_none = 0;
            for (std::size_t r = start; r < count; ++r) {
                oracle_misses += answers[r].correctFor(kActual) ? 0 : 1;
                oracle_none += answers[r].valid ? 0 : 1;
            }
            // The totals are added to, not overwritten.
            std::uint64_t misses = 7;
            std::uint64_t none = 3;
            simd::scorePairStream(first.data() + start,
                                  second.data() + start, count - start,
                                  misses, none);
            EXPECT_EQ(misses, 7 + oracle_misses)
                << "count " << count << " start " << start;
            EXPECT_EQ(none, 3 + oracle_none)
                << "count " << count << " start " << start;
            if (start == 0) {
                scored += count;
                missed += oracle_misses;
                unpredicted += oracle_none;
            }
        }
    }
    // The draws hit every outcome (right, wrong, no prediction) and
    // many ties that only the earlier-member rule scores right.
    EXPECT_GT(unpredicted, 0u);
    EXPECT_GT(missed, unpredicted);
    EXPECT_LT(missed, scored);
    EXPECT_GT(tie_flips, 20u);
}

TEST(SimdScorePairStream, EarlierMemberWinsTies)
{
    const std::uint32_t wrong2 = 2u << kOutcomeRankShift | kOutcomeValid;
    const std::uint32_t right2 = wrong2 | kOutcomeCorrect;
    const std::uint32_t right3 =
        3u << kOutcomeRankShift | kOutcomeValid | kOutcomeCorrect;
    const std::uint32_t first[] = {wrong2, right2, wrong2, 0};
    const std::uint32_t second[] = {right2, wrong2, right3, 0};
    const std::uint64_t expected_misses[] = {1, 0, 0, 1};
    const std::uint64_t expected_none[] = {0, 0, 0, 1};
    for (std::size_t r = 0; r < 4; ++r) {
        std::uint64_t misses = 0;
        std::uint64_t none = 0;
        simd::scorePairStream(first + r, second + r, 1, misses, none);
        EXPECT_EQ(misses, expected_misses[r]) << "record " << r;
        EXPECT_EQ(none, expected_none[r]) << "record " << r;
    }
}

/** One op log entry of the FlatMap fuzz: what happened and to whom. */
struct OpResult
{
    std::uint64_t key;
    int kind; // 0 find-hit/miss, 1 insert-fresh/existing, 2 erase
    bool outcome;
    std::uint32_t value;

    bool operator==(const OpResult &other) const = default;
};

/** Run one deterministic op script under the current dispatch level
 *  and log every observable outcome plus the final contents. */
void
runFlatMapScript(std::uint64_t seed, std::vector<OpResult> &log,
                 std::map<std::uint64_t, std::uint32_t> &contents)
{
    Rng rng(seed);
    FlatMap<std::uint64_t, std::uint32_t> map;
    std::uint32_t stamp = 1;
    for (unsigned op = 0; op < 4000; ++op) {
        // A small key domain forces long probe clusters, collisions,
        // wrap-arounds and erase/reinsert churn.
        const std::uint64_t key = rng.nextBelow(512);
        const std::uint64_t roll = rng.nextBelow(10);
        if (roll < 5) {
            bool inserted = false;
            std::uint32_t &value = map.findOrInsert(key, inserted);
            if (inserted)
                value = stamp++;
            log.push_back(OpResult{key, 1, inserted, value});
        } else if (roll < 8) {
            const std::uint32_t *value = map.find(key);
            log.push_back(OpResult{key, 0, value != nullptr,
                                   value ? *value : 0});
        } else {
            log.push_back(OpResult{key, 2, map.erase(key), 0});
        }
    }
    map.forEach([&contents](std::uint64_t key, std::uint32_t value) {
        contents[key] = value;
    });
}

TEST(SimdFlatMap, GroupProbeFuzzMatchesScalarOracle)
{
    // The scalar run is the oracle; every wider level must produce
    // the identical op log (every hit, miss, insert position effect
    // and erase) and the identical final contents.
    for (std::uint64_t seed : {0x1ULL, 0xfeedULL, 0xabcdef12ULL}) {
        std::vector<OpResult> scalar_log;
        std::map<std::uint64_t, std::uint32_t> scalar_contents;
        {
            ScopedSimdLevel forced(SimdLevel::Scalar);
            runFlatMapScript(seed, scalar_log, scalar_contents);
        }
        for (const SimdLevel level : supportedLevels()) {
            if (level == SimdLevel::Scalar)
                continue;
            ScopedSimdLevel forced(level);
            std::vector<OpResult> log;
            std::map<std::uint64_t, std::uint32_t> contents;
            runFlatMapScript(seed, log, contents);
            EXPECT_EQ(log, scalar_log)
                << "level " << simdLevelName(level) << " seed "
                << seed;
            EXPECT_EQ(contents, scalar_contents)
                << "level " << simdLevelName(level) << " seed "
                << seed;
        }
    }
}

} // namespace
} // namespace ibp
