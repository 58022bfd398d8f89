/**
 * @file
 * Differential tests of the SIMD/SoA batch engine: the block-based
 * traversal with the batched lane engine must produce bit-identical
 * SimResult counters whether the process dispatches vectorized or
 * forced-scalar (IBP_SIMD=off), and whether the trace's columns are
 * owned (generated) or borrowed from an mmap'ed `.ibpm` file. A
 * stale `.ibpm` entry in the retired v2 layout, or one with a
 * corrupt meta byte, is a cache miss, regenerated once and
 * rewritten as a valid v3 entry.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/factory.hh"
#include "core/simd.hh"
#include "core/target_cache.hh"
#include "sim/spec_columns.hh"
#include "sim/suite_runner.hh"
#include "trace/trace_block.hh"
#include "trace/trace_cache.hh"
#include "trace/trace_mmap.hh"
#include "util/bits.hh"

#include "per_cell_oracle.hh"

namespace ibp {
namespace {

/** Force a dispatch level for one scope, restoring on exit. */
class ScopedSimdLevel
{
  public:
    explicit ScopedSimdLevel(SimdLevel level) : _saved(simdLevel())
    {
        setSimdLevelForTest(level);
    }
    ~ScopedSimdLevel() { setSimdLevelForTest(_saved); }

  private:
    SimdLevel _saved;
};

class SimdEngineTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setenv("IBP_EVENTS", "0.05", 1);
        TraceCache::configureGlobal("");
    }
    void
    TearDown() override
    {
        TraceCache::configureGlobal("");
        unsetenv("IBP_EVENTS");
    }
};

/**
 * Columns chosen to push every engine partition: paper-configured
 * global-history rows (the incremental-pattern lane path), hybrids
 * with shared and deduplicated components, a per-branch (s=2)
 * variant and an unconstrained table (FlatMap probes), plus a BTB
 * and an extension family that decline the kernel and ride the
 * generic record-at-a-time path.
 */
std::vector<SweepColumn>
engineColumns()
{
    const auto spec = [](const std::string &text) {
        return [text]() { return makePredictorFromSpec(text); };
    };
    return {
        {"btb", spec("btb")},
        specColumn("paper-p3",
                   paperTwoLevel(3, TableSpec::setAssoc(4096, 4))),
        specColumn("paper-h5",
                   paperHybrid(3, 5, TableSpec::setAssoc(2048, 4))),
        specColumn("paper-h9",
                   paperHybrid(3, 9, TableSpec::setAssoc(2048, 4))),
        specColumn("paper-h9-dup",
                   paperHybrid(3, 9, TableSpec::setAssoc(2048, 4))),
        {"perbranch", spec("twolevel:p=4,table=assoc2:1024,s=2")},
        {"uncon-p4", spec("twolevel:p=4,table=unconstrained")},
        {"targetcache",
         []() {
             return std::make_unique<TargetCachePredictor>(
                 TargetCacheConfig{});
         }},
    };
}

/** simulateMany over @p trace with a fused kernel, fresh predictors,
 *  filling @p traversal when non-null. */
std::vector<SimResult>
runEngine(const std::vector<SweepColumn> &columns, const Trace &trace,
          TraversalStats *traversal = nullptr)
{
    std::vector<std::unique_ptr<IndirectPredictor>> predictors;
    std::vector<IndirectPredictor *> raw;
    for (const auto &column : columns) {
        predictors.push_back(column.make());
        raw.push_back(predictors.back().get());
    }
    SimOptions options;
    options.traversal = traversal;
    return simulateFused(raw, trace, options);
}

void
expectSameResults(const std::vector<SweepColumn> &columns,
                  const std::vector<SimResult> &a,
                  const std::vector<SimResult> &b)
{
    ASSERT_EQ(a.size(), columns.size());
    ASSERT_EQ(b.size(), columns.size());
    for (std::size_t i = 0; i < columns.size(); ++i) {
        EXPECT_EQ(a[i].branches, b[i].branches) << columns[i].label;
        EXPECT_EQ(a[i].misses, b[i].misses) << columns[i].label;
        EXPECT_EQ(a[i].noPrediction, b[i].noPrediction)
            << columns[i].label;
        EXPECT_EQ(a[i].tableOccupancy, b[i].tableOccupancy)
            << columns[i].label;
        EXPECT_EQ(a[i].tableCapacity, b[i].tableCapacity)
            << columns[i].label;
    }
}

TEST_F(SimdEngineTest, ForcedScalarMatchesVectorDispatchBitForBit)
{
    SuiteRunner runner({"idl"}, /*emitConditionals=*/true);
    const Trace &trace = runner.trace("idl");
    const auto columns = engineColumns();

    // Predictors capture dispatch decisions at construction (FlatMap
    // probe widths, the PDEP scatter), so each run builds its own
    // under the level it tests.
    const std::vector<SimResult> vectorized =
        runEngine(columns, trace);

    ScopedSimdLevel scalar(SimdLevel::Scalar);
    const std::vector<SimResult> forced_off =
        runEngine(columns, trace);
    expectSameResults(columns, vectorized, forced_off);

    // And the scalar engine still matches the per-predictor
    // reference oracle, closing the loop back to simulate().
    for (std::size_t i = 0; i < columns.size(); ++i) {
        auto fresh = columns[i].make();
        const SimResult one = simulate(*fresh, trace);
        EXPECT_EQ(forced_off[i].misses, one.misses)
            << columns[i].label;
        EXPECT_EQ(forced_off[i].branches, one.branches)
            << columns[i].label;
    }
}

TEST_F(SimdEngineTest, OwnedColumnsMatchMappedColumnsBitForBit)
{
    if (!traceMmapSupported())
        GTEST_SKIP() << "mmap traces unsupported on this platform";
    SuiteRunner runner({"idl"}, /*emitConditionals=*/true);
    const Trace &owned = runner.trace("idl");
    ASSERT_EQ(owned.readPath(), TraceReadPath::Generated);
    const auto columns = engineColumns();

    const std::string dir =
        testing::TempDir() + "/ibp_simd_engine_test";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/trace.ibpm";
    ASSERT_TRUE(saveTraceMmap(owned, path).ok());
    const auto loaded = loadTraceMmap(path);
    ASSERT_TRUE(loaded.ok());
    const Trace &mapped = loaded.value();
    ASSERT_EQ(mapped.readPath(), TraceReadPath::Mmap);
    ASSERT_EQ(mapped, owned);

    TraversalStats from_owned;
    const std::vector<SimResult> owned_results =
        runEngine(columns, owned, &from_owned);
    TraversalStats from_mapped;
    const std::vector<SimResult> mapped_results =
        runEngine(columns, mapped, &from_mapped);
    expectSameResults(columns, owned_results, mapped_results);

    // Both storage forms are sliced the same way: every block of
    // either is a columnar block.
    const std::uint64_t blocks =
        (owned.size() + kTraceBlockRecords - 1) / kTraceBlockRecords;
    EXPECT_GT(blocks, 1u);
    EXPECT_EQ(from_owned.columnarBlocks, blocks);
    EXPECT_EQ(from_mapped.columnarBlocks, blocks);
    EXPECT_EQ(from_owned.skippedRecords, from_mapped.skippedRecords);
    EXPECT_GT(from_mapped.laneColumns, 0u);
    EXPECT_GT(from_mapped.laneMachines, 0u);
    EXPECT_GT(from_mapped.genericColumns, 0u);
    EXPECT_EQ(from_mapped.laneColumns, from_owned.laneColumns);
    EXPECT_EQ(from_mapped.laneMachines, from_owned.laneMachines);

    std::filesystem::remove_all(dir);
}

/**
 * The retired record-array `.ibpm` v2 layout, as caches written
 * before the columnar format hold it: a 64-byte header (magic
 * "IBPMAP2", version 2, endian tag, record size 12, header size,
 * seed, count, name bytes, site hint, records offset, FNV-1a of the
 * first 56 bytes), the name, then 12-byte records 16-byte aligned.
 */
std::string
encodeRetiredV2(const Trace &trace)
{
    const auto put = [](std::string &blob, std::size_t offset,
                        auto value) {
        std::memcpy(blob.data() + offset, &value, sizeof(value));
    };
    const std::size_t name_bytes = trace.name().size();
    const std::size_t records_offset = (64 + name_bytes + 15) & ~15ull;
    std::string blob(records_offset + trace.size() * 12, '\0');
    std::memcpy(blob.data(), "IBPMAP2", 8);
    put(blob, 8, std::uint32_t{2});
    put(blob, 12, std::uint32_t{0x01020304u});
    put(blob, 16, std::uint32_t{12});
    put(blob, 20, std::uint32_t{64});
    put(blob, 24, std::uint64_t{trace.seed()});
    put(blob, 32, std::uint64_t{trace.size()});
    put(blob, 40, static_cast<std::uint32_t>(name_bytes));
    put(blob, 44, std::uint32_t{trace.siteCountHint()});
    put(blob, 48, std::uint64_t{records_offset});
    std::uint64_t words[7];
    std::memcpy(words, blob.data(), sizeof(words));
    put(blob, 56, fnv1a64(words, 7, 0xcbf29ce484222325ULL));
    std::memcpy(blob.data() + 64, trace.name().data(), name_bytes);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        char *out = blob.data() + records_offset + i * 12;
        put(blob, records_offset + i * 12, trace[i].pc);
        put(blob, records_offset + i * 12 + 4, trace[i].target);
        out[8] = static_cast<char>(trace[i].kind);
        out[9] = trace[i].taken ? 1 : 0;
    }
    return blob;
}

TEST_F(SimdEngineTest, StaleV2CacheEntryIsRegeneratedAsV3)
{
    if (!traceMmapSupported())
        GTEST_SKIP() << "mmap traces unsupported on this platform";
    const std::string dir =
        testing::TempDir() + "/ibp_simd_stale_v2_test";
    std::filesystem::remove_all(dir);
    TraceCache::configureGlobal(dir);
    const auto columns = engineColumns();

    // Cold pass: generate and store the entry, and keep the retired
    // v2 encoding of the very same trace.
    std::vector<SimResult> cold;
    std::string stale;
    {
        SuiteRunner runner({"idl"}, /*emitConditionals=*/true);
        ASSERT_EQ(runner.traceSourceStats().generated, 1u);
        cold = runEngine(columns, runner.trace("idl"));
        stale = encodeRetiredV2(runner.trace("idl"));
    }
    std::vector<std::string> entries;
    for (const auto &file : std::filesystem::directory_iterator(dir)) {
        if (file.path().extension() == ".ibpm")
            entries.push_back(file.path().string());
    }
    ASSERT_EQ(entries.size(), 1u);
    const std::string &entry = entries.front();
    const auto header = [&entry] {
        std::ifstream in(entry, std::ios::binary);
        std::string magic(7, '\0');
        in.read(magic.data(), 7);
        return magic;
    };
    ASSERT_EQ(header(), "IBPMAP3");
    {
        std::ofstream out(entry, std::ios::binary | std::ios::trunc);
        out.write(stale.data(),
                  static_cast<std::streamsize>(stale.size()));
    }
    EXPECT_FALSE(loadTraceMmap(entry).ok());

    // The v2 entry is a miss: regenerated exactly once, rewritten as
    // v3, and the counters do not move.
    {
        SuiteRunner runner({"idl"}, /*emitConditionals=*/true);
        EXPECT_EQ(runner.traceSourceStats().generated, 1u);
        EXPECT_EQ(runner.traceSourceStats().cacheHits, 0u);
        expectSameResults(columns, cold,
                          runEngine(columns, runner.trace("idl")));
    }
    EXPECT_EQ(header(), "IBPMAP3");

    // And the rewritten entry serves zero-copy from then on.
    {
        SuiteRunner runner({"idl"}, /*emitConditionals=*/true);
        EXPECT_EQ(runner.traceSourceStats().generated, 0u);
        EXPECT_EQ(runner.traceSourceStats().mmapHits, 1u);
        EXPECT_EQ(runner.trace("idl").readPath(), TraceReadPath::Mmap);
        expectSameResults(columns, cold,
                          runEngine(columns, runner.trace("idl")));
    }
    TraceCache::configureGlobal("");
    std::filesystem::remove_all(dir);
}

TEST_F(SimdEngineTest, CorruptMetaByteEntryIsRegeneratedWithSameCounters)
{
    if (!traceMmapSupported())
        GTEST_SKIP() << "mmap traces unsupported on this platform";
    const std::string dir =
        testing::TempDir() + "/ibp_simd_bad_meta_test";
    std::filesystem::remove_all(dir);
    TraceCache::configureGlobal(dir);
    const auto columns = engineColumns();

    // Cold pass: generate, store, and note where the first
    // predicted-indirect record's meta byte sits in the entry.
    std::vector<SimResult> cold;
    std::size_t first_indirect = 0;
    {
        SuiteRunner runner({"idl"}, /*emitConditionals=*/true);
        ASSERT_EQ(runner.traceSourceStats().generated, 1u);
        const Trace &trace = runner.trace("idl");
        cold = runEngine(columns, trace);
        while (!trace[first_indirect].isPredictedIndirect())
            ++first_indirect;
    }
    std::string entry;
    for (const auto &file : std::filesystem::directory_iterator(dir)) {
        if (file.path().extension() == ".ibpm")
            entry = file.path().string();
    }
    ASSERT_FALSE(entry.empty());
    std::string bytes;
    {
        std::ifstream in(entry, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    std::uint64_t meta_offset = 0;
    std::memcpy(&meta_offset, bytes.data() + 64, 8);
    // Kind 5 does not exist; served, the record would vanish from
    // every predictor's stream and move the counters.
    bytes[meta_offset + first_indirect] = '\x05';
    {
        std::ofstream out(entry, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_FALSE(loadTraceMmap(entry).ok());

    // A miss: regenerated once, counters identical to the clean
    // trace, and the rewritten entry serves from then on.
    {
        SuiteRunner runner({"idl"}, /*emitConditionals=*/true);
        EXPECT_EQ(runner.traceSourceStats().generated, 1u);
        EXPECT_EQ(runner.traceSourceStats().cacheHits, 0u);
        expectSameResults(columns, cold,
                          runEngine(columns, runner.trace("idl")));
    }
    {
        SuiteRunner runner({"idl"}, /*emitConditionals=*/true);
        EXPECT_EQ(runner.traceSourceStats().mmapHits, 1u);
        expectSameResults(columns, cold,
                          runEngine(columns, runner.trace("idl")));
    }
    TraceCache::configureGlobal("");
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace ibp
