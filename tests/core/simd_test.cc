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

/** Per-column counters of one pair-scoring run. */
struct PairCounts
{
    std::vector<std::uint32_t> misses;
    std::vector<std::uint32_t> noPrediction;

    explicit PairCounts(std::size_t count)
        : misses(count, 0), noPrediction(count, 0)
    {
    }
};

TEST(SimdScorePairs, MatchesConfidenceChoiceOracleAcrossCounts)
{
    // Machines 0 and 1 never hold a valid entry (all-invalid pairs);
    // the others draw confidence 0..2, so ranks tie often. Every
    // column count 0..40 covers each AVX2 tail length, and the last
    // machine is always referenced so the gathers reach the last
    // word.
    constexpr std::size_t kMachines = 37;
    constexpr Addr kActual = 0x4000;
    Rng rng(0x5c0de);
    const bool have_avx2 = supportedLevels().back() == SimdLevel::Avx2;
    std::uint64_t scored = 0;
    std::uint64_t missed = 0;
    std::uint64_t unpredicted = 0;
    for (std::size_t count = 0; count <= 40; ++count) {
        std::vector<std::uint32_t> first(count);
        std::vector<std::uint32_t> second(count);
        for (std::size_t i = 0; i < count; ++i) {
            first[i] = static_cast<std::uint32_t>(rng.nextBelow(kMachines));
            second[i] =
                static_cast<std::uint32_t>(rng.nextBelow(kMachines));
            if (i % 5 == 0) {
                second[i] = first[i]; // a plain column
            } else if (i % 7 == 3) {
                first[i] = 0; // both members invalid
                second[i] = 1;
            }
        }
        if (count != 0)
            second[count - 1] = kMachines - 1;

        PairCounts oracle(count);
        PairCounts scalar(count);
        PairCounts avx2(count);
        for (unsigned record = 0; record < 24; ++record) {
            std::vector<TableEntry> entries(kMachines);
            for (std::size_t m = 2; m < kMachines; ++m) {
                TableEntry &entry = entries[m];
                entry.valid = rng.nextBool(0.8);
                entry.target = rng.nextBool(0.5) ? kActual : kActual + 4;
                entry.confidence = SatCounter(
                    2, static_cast<unsigned>(rng.nextBelow(3)));
            }
            std::vector<std::uint32_t> words(kMachines);
            for (std::size_t m = 0; m < kMachines; ++m)
                words[m] = twoLevelOutcome(&entries[m], kActual);

            for (std::size_t i = 0; i < count; ++i) {
                const Prediction members[2] = {
                    twoLevelPrediction(&entries[first[i]]),
                    twoLevelPrediction(&entries[second[i]])};
                const int chosen = confidenceChoice(
                    2, [&members](unsigned k) -> const Prediction & {
                        return members[k];
                    });
                const Prediction answer =
                    chosen < 0 ? Prediction{} : members[chosen];
                oracle.misses[i] += answer.correctFor(kActual) ? 0 : 1;
                oracle.noPrediction[i] += answer.valid ? 0 : 1;
                ++scored;
                missed += answer.correctFor(kActual) ? 0 : 1;
                unpredicted += answer.valid ? 0 : 1;
            }
            simd::scorePairsScalar(words.data(), first.data(),
                                   second.data(), scalar.misses.data(),
                                   scalar.noPrediction.data(), count);
            if (have_avx2) {
                simd::scorePairsAvx2(words.data(), first.data(),
                                     second.data(), avx2.misses.data(),
                                     avx2.noPrediction.data(), count);
            }
        }
        EXPECT_EQ(scalar.misses, oracle.misses) << "count " << count;
        EXPECT_EQ(scalar.noPrediction, oracle.noPrediction)
            << "count " << count;
        if (have_avx2) {
            EXPECT_EQ(avx2.misses, oracle.misses) << "count " << count;
            EXPECT_EQ(avx2.noPrediction, oracle.noPrediction)
                << "count " << count;
        }
    }
    // The draws hit every outcome: right, wrong and no prediction.
    EXPECT_GT(unpredicted, 0u);
    EXPECT_GT(missed, unpredicted);
    EXPECT_LT(missed, scored);
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
