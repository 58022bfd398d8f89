/**
 * @file
 * Differential tests of the fused sweep kernel: a grid run through
 * the phase-1 fused engine (shared trace traversal + shared
 * first-level histories, SweepKernel) must produce exactly the
 * counters the per-cell isolated path produces, for every predictor
 * family, at any thread count. Also covers the phase-1 -> phase-2
 * fallback (injected "fused"-site faults, sim-armed injectors) and
 * the scheduler-determinism guarantee (identical tables and
 * checkpoint journals across thread counts).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/btb.hh"
#include "core/cascaded.hh"
#include "core/factory.hh"
#include "core/hybrid.hh"
#include "core/ittage.hh"
#include "core/shared_hybrid.hh"
#include "core/simd.hh"
#include "core/sweep_kernel.hh"
#include "core/table_spec.hh"
#include "core/target_cache.hh"
#include "core/two_level.hh"
#include "robust/fault_injection.hh"
#include "sim/spec_columns.hh"
#include "sim/suite_runner.hh"
#include "trace/trace_cache.hh"

#include "per_cell_oracle.hh"

namespace ibp {
namespace {

class FusedKernelTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setenv("IBP_EVENTS", "0.05", 1);
        TraceCache::configureGlobal("");
        FaultInjector::configureGlobal("");
    }
    void
    TearDown() override
    {
        FaultInjector::configureGlobal("");
        TraceCache::configureGlobal("");
        unsetenv("IBP_EVENTS");
        unsetenv("IBP_THREADS");
    }
};

/**
 * One column per predictor family and per fusion-relevant code path:
 * BTBs (never join a kernel), limited-precision two-level predictors
 * at two path lengths of the SAME history group (the scatter-mask
 * fast path must serve both depths from one compressed-target
 * cache), full-precision and per-branch (s=2) variants (separate
 * groups / builder path), the fold compressor and a concat key mix
 * (non-BitSelect assembly over the shared buffer), history elements
 * beyond TargetOnly, conditional-target history, hybrids (every
 * component joins), and the extension families (cascaded, ITTAGE,
 * target cache, shared hybrid) which decline the kernel but still
 * ride the shared traversal.
 */
std::vector<SweepColumn>
fusedColumns()
{
    const auto spec = [](const std::string &text) {
        return [text]() { return makePredictorFromSpec(text); };
    };
    return {
        {"btb", spec("btb")},
        {"btb2bc", spec("btb2bc")},
        {"2lev-p2", spec("twolevel:p=2,table=assoc4:1024")},
        {"2lev-p6", spec("twolevel:p=6,table=assoc4:1024")},
        {"uncon-p4", spec("twolevel:p=4,table=unconstrained")},
        {"perbranch", spec("twolevel:p=4,table=assoc2:1024,s=2")},
        {"fold", spec("twolevel:p=8,table=tagless:4096,"
                      "compressor=fold")},
        {"pingpong-cat",
         spec("twolevel:p=4,table=assoc2:2048,interleave=pingpong,"
              "mix=concat")},
        {"hybrid", spec("hybrid:p1=3,p2=7,table=assoc4:1024,conf=2")},
        {"hybrid-sel",
         spec("hybrid:p1=3,p2=7,table=assoc2:1024,meta=selector")},
        {"targetaddr",
         []() {
             TwoLevelConfig config =
                 paperTwoLevel(3, TableSpec::setAssoc(1024, 4));
             config.historyElement = HistoryElement::TargetAndAddress;
             return std::make_unique<TwoLevelPredictor>(config);
         }},
        {"condtargets",
         []() {
             TwoLevelConfig config =
                 paperTwoLevel(4, TableSpec::setAssoc(1024, 4));
             config.includeConditionalTargets = true;
             return std::make_unique<TwoLevelPredictor>(config);
         }},
        {"cascaded",
         []() {
             return std::make_unique<CascadedPredictor>(
                 CascadedConfig::classic(1024));
         }},
        {"ittage",
         []() {
             return std::make_unique<IttagePredictor>(IttageConfig{});
         }},
        {"targetcache",
         []() {
             return std::make_unique<TargetCachePredictor>(
                 TargetCacheConfig{});
         }},
        {"sharedhybrid",
         []() {
             return std::make_unique<SharedHybridPredictor>(
                 SharedHybridConfig{});
         }},
    };
}

void
expectSameGrid(const SuiteRunner &runner,
               const std::vector<SweepColumn> &columns,
               const GridResult &fused, const GridResult &reference)
{
    EXPECT_EQ(fused.failures().size(), reference.failures().size());
    for (const auto &column : columns) {
        for (const auto &name : runner.benchmarks()) {
            ASSERT_TRUE(fused.has(column.label, name));
            ASSERT_TRUE(reference.has(column.label, name));
            // Bit-identical, not approximately equal: the fused
            // engine must count the same branches the same way.
            EXPECT_EQ(fused.get(column.label, name),
                      reference.get(column.label, name))
                << column.label << " x " << name;
        }
    }
}

TEST_F(FusedKernelTest, KernelRunMatchesSoloRunsBitForBit)
{
    // Engine-level differential, no SuiteRunner scheduling involved:
    // simulateMany with a SweepKernel versus per-predictor
    // simulate(), on the same trace (conditionals included so the
    // conditional-history paths are exercised).
    SuiteRunner runner({"idl"}, /*emitConditionals=*/true);
    const Trace &trace = runner.trace("idl");
    const auto columns = fusedColumns();

    std::vector<std::unique_ptr<IndirectPredictor>> predictors;
    std::vector<IndirectPredictor *> raw;
    for (const auto &column : columns) {
        predictors.push_back(column.make());
        raw.push_back(predictors.back().get());
    }
    SweepKernel kernel;
    for (IndirectPredictor *predictor : raw)
        kernel.tryJoin(*predictor);
    kernel.finalize();
    // Ten two-level and hybrid columns join; the two BTBs and the
    // four extension families decline.
    EXPECT_EQ(kernel.joinedPredictors(), 10u);
    EXPECT_EQ(kernel.declinedPredictors(), 6u);
    EXPECT_GT(kernel.groupCount(), 1u);

    SimOptions options;
    options.kernel = &kernel;
    const std::vector<SimResult> many =
        simulateMany(raw, trace, options);
    ASSERT_EQ(many.size(), columns.size());

    for (std::size_t i = 0; i < columns.size(); ++i) {
        auto fresh = columns[i].make();
        const SimResult one = simulate(*fresh, trace);
        EXPECT_EQ(many[i].branches, one.branches) << columns[i].label;
        EXPECT_EQ(many[i].misses, one.misses) << columns[i].label;
        EXPECT_EQ(many[i].noPrediction, one.noPrediction)
            << columns[i].label;
        EXPECT_EQ(many[i].tableOccupancy, one.tableOccupancy)
            << columns[i].label;
        EXPECT_EQ(many[i].tableCapacity, one.tableCapacity)
            << columns[i].label;
        EXPECT_TRUE(many[i].sharedTraversal);
        EXPECT_GE(many[i].groupSeconds, many[i].seconds);
    }
}

TEST_F(FusedKernelTest, JoinedPredictorsStillRunAloneBitForBit)
{
    // Joining a kernel records the predictor's members in the kernel
    // and leaves the object untouched: driven through simulate()
    // afterwards, each still advances its own history and matches a
    // twin that never joined.
    SuiteRunner runner({"idl"}, /*emitConditionals=*/true);
    const Trace &trace = runner.trace("idl");
    const std::vector<std::string> specs = {
        "twolevel:p=3,table=assoc4:1024",
        "hybrid:p1=3,p2=7,table=assoc4:1024,conf=2",
        "hybrid:p1=3,p2=7,table=assoc2:1024,meta=selector",
    };
    std::vector<std::unique_ptr<IndirectPredictor>> joined;
    SweepKernel kernel;
    for (const std::string &spec : specs) {
        joined.push_back(makePredictorFromSpec(spec));
        EXPECT_TRUE(kernel.tryJoin(*joined.back())) << spec;
    }
    kernel.finalize();
    EXPECT_EQ(kernel.joinedPredictors(), 3u);

    for (std::size_t i = 0; i < specs.size(); ++i) {
        const SimResult alone = simulate(*joined[i], trace);
        const auto twin = makePredictorFromSpec(specs[i]);
        const SimResult reference = simulate(*twin, trace);
        EXPECT_EQ(alone.branches, reference.branches) << specs[i];
        EXPECT_EQ(alone.misses, reference.misses) << specs[i];
        EXPECT_EQ(alone.noPrediction, reference.noPrediction) << specs[i];
        EXPECT_EQ(alone.tableOccupancy, reference.tableOccupancy)
            << specs[i];
        EXPECT_EQ(alone.tableCapacity, reference.tableCapacity)
            << specs[i];
    }
}

TEST_F(FusedKernelTest, FoldedMembersMatchSoloRunsBitForBit)
{
    // A fig17-style row: several hybrids share their first component
    // (equal TwoLevelConfig), and two columns are fully identical.
    // The lane plan folds those onto one machine each instead of
    // simulating their own tables - every counter, including table
    // occupancy, must still match a solo run of each column exactly.
    SuiteRunner runner({"idl"}, /*emitConditionals=*/true);
    const Trace &trace = runner.trace("idl");
    const auto spec = [](const std::string &text) {
        return [text]() { return makePredictorFromSpec(text); };
    };
    const std::vector<SweepColumn> columns = {
        {"h5", spec("hybrid:p1=3,p2=5,table=assoc4:1024,conf=2")},
        {"h7", spec("hybrid:p1=3,p2=7,table=assoc4:1024,conf=2")},
        {"h7-dup", spec("hybrid:p1=3,p2=7,table=assoc4:1024,conf=2")},
        {"solo6", spec("twolevel:p=6,table=assoc4:1024")},
        {"solo6-dup", spec("twolevel:p=6,table=assoc4:1024")},
    };

    std::vector<std::unique_ptr<IndirectPredictor>> predictors;
    std::vector<IndirectPredictor *> raw;
    for (const auto &column : columns) {
        predictors.push_back(column.make());
        raw.push_back(predictors.back().get());
    }
    SimOptions options;
    TraversalStats traversal;
    options.traversal = &traversal;
    const std::vector<SimResult> many = simulateFused(raw, trace, options);
    ASSERT_EQ(many.size(), columns.size());
    // h7/h7-dup first components fold onto h5's, h7-dup's second
    // onto h7's, and solo6-dup onto solo6: exactly four.
    EXPECT_EQ(traversal.foldedMembers, 4u);
    EXPECT_EQ(traversal.laneMachines, 4u);
    EXPECT_EQ(traversal.genericColumns, 0u);

    for (std::size_t i = 0; i < columns.size(); ++i) {
        auto fresh = columns[i].make();
        const SimResult one = simulate(*fresh, trace);
        EXPECT_EQ(many[i].branches, one.branches) << columns[i].label;
        EXPECT_EQ(many[i].misses, one.misses) << columns[i].label;
        EXPECT_EQ(many[i].noPrediction, one.noPrediction)
            << columns[i].label;
        EXPECT_EQ(many[i].tableOccupancy, one.tableOccupancy)
            << columns[i].label;
        EXPECT_EQ(many[i].tableCapacity, one.tableCapacity)
            << columns[i].label;
    }

    // The grid path surfaces the fold count in the run telemetry,
    // and it survives the JSON round-trip.
    setenv("IBP_THREADS", "1", 1);
    SuiteRunner grid_runner({"idl"}, /*emitConditionals=*/true);
    RunSession session;
    RunMetrics metrics;
    session.metrics = &metrics;
    const GridResult fused = grid_runner.run(columns, session);

    const GridResult reference = perCellOracle(grid_runner, columns);
    expectSameGrid(grid_runner, columns, fused, reference);

    ASSERT_TRUE(metrics.hasSweepKernel());
    const SweepKernelStats sweep = metrics.sweepKernel();
    EXPECT_GE(sweep.predictorsDeduped, 4u);
    const RunMetrics reloaded = RunMetrics::fromJson(metrics.toJson());
    EXPECT_EQ(reloaded.sweepKernel().predictorsDeduped,
              sweep.predictorsDeduped);
}

/**
 * Plain, confidence-hybrid and selector-hybrid columns whose
 * components repeat one another's configurations (p=3 and p=7 on one
 * table, plus an unbounded pair), so the lane plan folds them onto
 * shared machines across all three column kinds.
 */
std::vector<SweepColumn>
oneEngineColumns()
{
    const auto spec = [](const std::string &text) {
        return [text]() { return makePredictorFromSpec(text); };
    };
    return {
        {"plain-p3", spec("twolevel:p=3,table=assoc4:1024")},
        {"conf-3-7", spec("hybrid:p1=3,p2=7,table=assoc4:1024")},
        {"sel-3-7",
         spec("hybrid:p1=3,p2=7,table=assoc4:1024,meta=selector")},
        {"sel-7-3",
         spec("hybrid:p1=7,p2=3,table=assoc4:1024,meta=selector")},
        {"plain-p7", spec("twolevel:p=7,table=assoc4:1024")},
        {"sel-uncon",
         spec("hybrid:p1=2,p2=6,table=unconstrained,meta=selector")},
        {"conf-uncon", spec("hybrid:p1=2,p2=6,table=unconstrained")},
    };
}

/** One fused simulateMany over oneEngineColumns() against a solo
 *  simulate() of each column, both with @p warmup branches. */
void
expectOneEngineMatchesSolo(std::uint64_t warmup)
{
    SuiteRunner runner({"idl"}, /*emitConditionals=*/true);
    const Trace &trace = runner.trace("idl");
    const auto columns = oneEngineColumns();

    std::vector<std::unique_ptr<IndirectPredictor>> predictors;
    std::vector<IndirectPredictor *> raw;
    for (const auto &column : columns) {
        predictors.push_back(column.make());
        raw.push_back(predictors.back().get());
    }
    SimOptions options;
    options.warmupBranches = warmup;
    TraversalStats traversal;
    options.traversal = &traversal;
    const std::vector<SimResult> many = simulateFused(raw, trace, options);
    ASSERT_EQ(many.size(), columns.size());

    // Every column runs in the lane engine, and four machines (p=3,
    // p=7, unbounded p=2 and p=6) serve all twelve members.
    EXPECT_EQ(traversal.genericColumns, 0u);
    EXPECT_EQ(traversal.laneColumns, columns.size());
    EXPECT_EQ(traversal.laneMachines, 4u);
    EXPECT_EQ(traversal.foldedMembers, 8u);

    SimOptions solo_options;
    solo_options.warmupBranches = warmup;
    for (std::size_t i = 0; i < columns.size(); ++i) {
        auto fresh = columns[i].make();
        const SimResult one = simulate(*fresh, trace, solo_options);
        EXPECT_EQ(many[i].branches, one.branches) << columns[i].label;
        EXPECT_EQ(many[i].misses, one.misses) << columns[i].label;
        EXPECT_EQ(many[i].noPrediction, one.noPrediction)
            << columns[i].label;
        EXPECT_EQ(many[i].tableOccupancy, one.tableOccupancy)
            << columns[i].label;
        EXPECT_EQ(many[i].tableCapacity, one.tableCapacity)
            << columns[i].label;
    }
}

TEST_F(FusedKernelTest, OneEngineRunsEveryHybridKindBitForBit)
{
    expectOneEngineMatchesSolo(0);
}

TEST_F(FusedKernelTest, OneEngineMatchesSoloRunsAfterWarmup)
{
    // Selectors train during warm-up; only the counting stops. (On
    // this trace a lane engine that skipped warm-up selector training
    // still matches at 500 but not at 1000.)
    for (const std::uint64_t warmup : {500u, 1000u}) {
        SCOPED_TRACE(warmup);
        expectOneEngineMatchesSolo(warmup);
    }
}

/**
 * Fully-associative columns the lane plan runs as LRU stacks: a p=3
 * size sweep from 1 to 32768 entries (beyond the trace's distinct
 * keys at the top, so the largest members never evict), a {1, 2}
 * stack without the 2bc rule whose six-stamp window renumbers every
 * few records, confidence- and selector-hybrid members that make a
 * p=5 {64, 1024} stack and fold their p=3 components onto the sweep,
 * a duplicate sweep column that folds, and a lone p=2 table that
 * stacks with nothing.
 */
std::vector<SweepColumn>
lruStackColumns()
{
    const auto spec = [](const std::string &text) {
        return [text]() { return makePredictorFromSpec(text); };
    };
    std::vector<SweepColumn> columns;
    for (const unsigned size : {1u, 2u, 16u, 64u, 256u, 1024u, 4096u,
                                32768u}) {
        const std::string table = "fullassoc:" + std::to_string(size);
        columns.push_back(
            {"p3-" + table, spec("twolevel:p=3,table=" + table)});
    }
    columns.push_back(
        {"p3-dup", spec("twolevel:p=3,table=fullassoc:256")});
    columns.push_back(
        {"no2bc-1", spec("twolevel:p=1,2bc=0,table=fullassoc:1")});
    columns.push_back(
        {"no2bc-2", spec("twolevel:p=1,2bc=0,table=fullassoc:2")});
    columns.push_back(
        {"conf-3-5", spec("hybrid:p1=3,p2=5,table=fullassoc:1024")});
    columns.push_back(
        {"sel-5-3",
         spec("hybrid:p1=5,p2=3,table=fullassoc:64,meta=selector")});
    columns.push_back({"lone-p2", spec("twolevel:p=2,table=fullassoc:512")});
    return columns;
}

/** Run @p columns over @p trace in one fused simulateMany() with
 *  warm-up @p warmup, filling @p traversal. */
std::vector<SimResult>
runFused(const std::vector<SweepColumn> &columns, const Trace &trace,
         std::uint64_t warmup, TraversalStats &traversal)
{
    std::vector<std::unique_ptr<IndirectPredictor>> predictors;
    std::vector<IndirectPredictor *> raw;
    for (const auto &column : columns) {
        predictors.push_back(column.make());
        raw.push_back(predictors.back().get());
    }
    SimOptions options;
    options.warmupBranches = warmup;
    options.traversal = &traversal;
    return simulateFused(raw, trace, options);
}

/** Every counter of @p fused equals a solo simulate() of its column
 *  on the reference tables (warm-up @p warmup). */
void
expectSoloReferenceCounters(const std::vector<SweepColumn> &columns,
                            const Trace &trace, std::uint64_t warmup,
                            const std::vector<SimResult> &fused)
{
    ASSERT_EQ(fused.size(), columns.size());
    SimOptions solo_options;
    solo_options.warmupBranches = warmup;
    for (std::size_t i = 0; i < columns.size(); ++i) {
        const SimResult one = perCellResult(columns[i], trace, solo_options);
        EXPECT_EQ(fused[i].branches, one.branches) << columns[i].label;
        EXPECT_EQ(fused[i].misses, one.misses) << columns[i].label;
        EXPECT_EQ(fused[i].noPrediction, one.noPrediction)
            << columns[i].label;
        EXPECT_EQ(fused[i].tableOccupancy, one.tableOccupancy)
            << columns[i].label;
        EXPECT_EQ(fused[i].tableCapacity, one.tableCapacity)
            << columns[i].label;
    }
}

TEST_F(FusedKernelTest, LruStacksMatchSoloReferenceRunsBitForBit)
{
    SuiteRunner runner({"idl"}, /*emitConditionals=*/true);
    const Trace &trace = runner.trace("idl");
    const auto columns = lruStackColumns();
    for (const std::uint64_t warmup : {0u, 700u}) {
        SCOPED_TRACE(warmup);
        TraversalStats traversal;
        const std::vector<SimResult> many =
            runFused(columns, trace, warmup, traversal);
        ASSERT_EQ(many.size(), columns.size());

        // Stacks: the p=3 sweep (8 sizes), the 2bc-less {1, 2} and
        // the hybrids' p=5 {64, 1024}; the lone p=2 table drives its
        // own table. The duplicate and both hybrids' p=3 components
        // fold onto the sweep.
        EXPECT_EQ(traversal.lruStacks, 3u);
        EXPECT_EQ(traversal.stackedMembers, 12u);
        EXPECT_EQ(traversal.setStacks, 0u);
        EXPECT_EQ(traversal.laneMachines, 13u);
        EXPECT_EQ(traversal.foldedMembers, 3u);
        EXPECT_EQ(traversal.genericColumns, 0u);
        // The trace holds fewer p=3 keys than 1024, so the three
        // largest sweep members never evict; and the {1, 2} stack
        // renumbers its six-stamp window after every four restamps,
        // thousands of times.
        EXPECT_LT(many[5].tableOccupancy, 1024u);
        EXPECT_GT(many[9].branches, 4u * 2000);

        expectSoloReferenceCounters(columns, trace, warmup, many);
    }
}

/**
 * Set-associative columns for the set-stack differential: a p=3
 * stack of 1-, 2-, 4- and 8-way members at 256 sets, a 2bc-less p=1
 * stack of 1-, 2- and 4-way members at two sets and a p=2 stack of
 * 2 and 8 ways at one set (both evict on most records), a folded
 * duplicate, a confidence hybrid whose two p=5 components are
 * stack-mates, and a lone p=2 machine of 128 sets that forms no
 * stack.
 */
std::vector<SweepColumn>
setStackColumns()
{
    const auto spec = [](const std::string &text) {
        return [text]() { return makePredictorFromSpec(text); };
    };
    std::vector<SweepColumn> columns;
    for (const unsigned ways : {1u, 2u, 4u, 8u}) {
        const std::string table = "assoc" + std::to_string(ways) + ":" +
                                  std::to_string(256 * ways);
        columns.push_back(
            {"p3-" + table, spec("twolevel:p=3,table=" + table)});
    }
    columns.push_back({"p3-dup", spec("twolevel:p=3,table=assoc2:512")});
    for (const char *table : {"assoc1:2", "assoc2:4", "assoc4:8"}) {
        columns.push_back({std::string("no2bc-") + table,
                           spec(std::string("twolevel:p=1,2bc=0,table=") +
                                table)});
    }
    columns.push_back({"p2-assoc2:2", spec("twolevel:p=2,table=assoc2:2")});
    columns.push_back({"p2-assoc8:8", spec("twolevel:p=2,table=assoc8:8")});
    columns.push_back({"conf-mates", []() {
                           HybridConfig config;
                           config.components = {
                               paperTwoLevel(5, TableSpec::setAssoc(512, 2)),
                               paperTwoLevel(5, TableSpec::setAssoc(1024, 4))};
                           return std::make_unique<HybridPredictor>(config);
                       }});
    columns.push_back({"lone-p2", spec("twolevel:p=2,table=assoc4:512")});
    return columns;
}

TEST_F(FusedKernelTest, SetStacksMatchSoloReferenceRunsBitForBit)
{
    SuiteRunner runner({"idl"}, /*emitConditionals=*/true);
    const Trace &trace = runner.trace("idl");
    const auto columns = setStackColumns();
    for (const std::uint64_t warmup : {0u, 700u}) {
        SCOPED_TRACE(warmup);
        TraversalStats traversal;
        const std::vector<SimResult> many =
            runFused(columns, trace, warmup, traversal);
        ASSERT_EQ(many.size(), columns.size());

        // Set stacks: p=3 {1, 2, 4, 8}, p=1 {1, 2, 4}, p=2 {2, 8} and
        // the hybrid's p=5 {2, 4}; the duplicate folds and the lone
        // p=2 machine drives its own table.
        EXPECT_EQ(traversal.setStacks, 4u);
        EXPECT_EQ(traversal.setStackedMembers, 11u);
        EXPECT_EQ(traversal.lruStacks, 0u);
        EXPECT_EQ(traversal.stackedMembers, 0u);
        EXPECT_EQ(traversal.laneMachines, 12u);
        EXPECT_EQ(traversal.foldedMembers, 1u);
        EXPECT_EQ(traversal.genericColumns, 0u);
        // The one- and two-set stacks are full: every member holds
        // its capacity.
        EXPECT_EQ(many[5].tableOccupancy, 2u);
        EXPECT_EQ(many[9].tableOccupancy, 8u);

        expectSoloReferenceCounters(columns, trace, warmup, many);
    }
}

/**
 * Bounded BTB columns (btbColumn) run as the p=0 two-level machine;
 * each must count exactly what a BtbPredictor on the reference
 * tables counts, for every bounded kind at 64, 1K and 32K entries
 * with the 2bc rule on and off - also when it folds onto an equal
 * p=0 column or joins a stack.
 */
TEST_F(FusedKernelTest, BtbColumnEqualsBtbPredictor)
{
    SuiteRunner runner({"idl", "perl"});
    std::vector<SweepColumn> columns;
    std::vector<SweepColumn> btbs;
    for (const std::uint64_t entries : {64u, 1024u, 32768u}) {
        for (const TableSpec &table :
             {TableSpec::fullyAssoc(entries), TableSpec::setAssoc(entries, 2),
              TableSpec::setAssoc(entries, 4), TableSpec::tagless(entries)}) {
            for (const bool hysteresis : {true, false}) {
                const std::string label =
                    table.describe() + (hysteresis ? "-2bc" : "");
                columns.push_back(btbColumn(label, table, hysteresis));
                btbs.push_back({label, [table, hysteresis]() {
                                    return std::make_unique<BtbPredictor>(
                                        table, hysteresis);
                                }});
            }
        }
    }
    // An unconstrained BTB column keeps its BtbPredictor, yet the p=0
    // two-level machine on an unconstrained table is counter-identical
    // to it too: both are checked against a solo BtbPredictor.
    for (const bool hysteresis : {true, false}) {
        const TableSpec table = TableSpec::unconstrained();
        const std::string label = std::string("unconstrained") +
                                  (hysteresis ? "-2bc" : "");
        TwoLevelConfig p0 = paperTwoLevel(0, table);
        p0.hysteresis = hysteresis;
        columns.push_back(btbColumn(label, table, hysteresis));
        columns.push_back(specColumn("p0-" + label, p0));
        for (int copy = 0; copy < 2; ++copy) {
            btbs.push_back({label, [table, hysteresis]() {
                                return std::make_unique<BtbPredictor>(
                                    table, hysteresis);
                            }});
        }
    }
    columns.push_back(
        specColumn("p0", paperTwoLevel(0, TableSpec::setAssoc(1024, 4))));

    for (const std::string &name : runner.benchmarks()) {
        SCOPED_TRACE(name);
        const Trace &trace = runner.trace(name);
        TraversalStats traversal;
        std::vector<SimResult> fused =
            runFused(columns, trace, 0, traversal);
        // Every bounded BTB is a lane column; the 2bc 4-way 1K BTB
        // folds onto the p0 column, and each hysteresis flag's
        // fully-associative BTBs form one LRU stack. The two
        // unconstrained BTBs run their BtbPredictor on the generic
        // path.
        EXPECT_EQ(traversal.genericColumns, 2u);
        EXPECT_EQ(traversal.foldedMembers, 1u);
        EXPECT_EQ(traversal.lruStacks, 2u);

        fused.pop_back();
        expectSoloReferenceCounters(btbs, trace, 0, fused);
    }
}

/**
 * Lane columns for the phase-2 differential (outcome words, pair
 * reduction, wide and selector loops). With @p manyPairs, ten pair
 * columns - plain two-level columns, two-component confidence hybrids
 * with 1-bit confidence (their components tie on most records), and a
 * hybrid whose two components fold onto one machine - so the AVX2
 * reduction runs; else three, so every level runs the scalar loop.
 * Both sets add a three-component confidence hybrid (the wide loop)
 * and a selector hybrid.
 */
std::vector<SweepColumn>
phaseTwoColumns(bool manyPairs)
{
    const auto spec = [](const std::string &text) {
        return [text]() { return makePredictorFromSpec(text); };
    };
    std::vector<SweepColumn> columns = {
        {"plain-p1", spec("twolevel:p=1,table=assoc4:512")},
        {"tie-1-4", spec("hybrid:p1=1,p2=4,table=assoc4:512,conf=1")},
        {"same-3-3", spec("hybrid:p1=3,p2=3,table=assoc4:512")},
    };
    if (manyPairs) {
        columns.push_back(
            {"plain-p3", spec("twolevel:p=3,table=assoc4:1024")});
        columns.push_back(
            {"plain-p6", spec("twolevel:p=6,table=tagless:1024")});
        columns.push_back(
            {"tie-0-3", spec("hybrid:p1=0,p2=3,table=assoc4:256,conf=1")});
        columns.push_back(
            {"tie-2-6", spec("hybrid:p1=2,p2=6,table=assoc2:512,conf=1")});
        columns.push_back(
            {"tie-3-8", spec("hybrid:p1=3,p2=8,table=assoc4:512,conf=1")});
        columns.push_back(
            {"conf-2-5", spec("hybrid:p1=2,p2=5,table=assoc4:1024")});
        columns.push_back(
            {"conf-6-1", spec("hybrid:p1=6,p2=1,table=unconstrained")});
    }
    columns.push_back({"3comp", []() {
                           HybridConfig config;
                           config.components = {
                               paperTwoLevel(5, TableSpec::setAssoc(256, 4)),
                               paperTwoLevel(2, TableSpec::setAssoc(256, 4)),
                               paperTwoLevel(0, TableSpec::setAssoc(512, 4))};
                           config.confidenceBits = 1;
                           return std::make_unique<HybridPredictor>(config);
                       }});
    columns.push_back(
        {"sel-2-5",
         spec("hybrid:p1=2,p2=5,table=assoc2:1024,meta=selector")});
    return columns;
}

TEST_F(FusedKernelTest, LaneScoringMatchesPerCellOracleAtEveryLevel)
{
    SuiteRunner runner({"idl"}, /*emitConditionals=*/true);
    const Trace &trace = runner.trace("idl");
    const SimdLevel initial = simdLevel();
    for (const bool many_pairs : {true, false}) {
        const auto columns = phaseTwoColumns(many_pairs);
        for (const std::uint64_t warmup : {0u, 1000u}) {
            SimOptions solo_options;
            solo_options.warmupBranches = warmup;
            std::vector<SimResult> oracle;
            for (const SweepColumn &column : columns)
                oracle.push_back(perCellResult(column, trace, solo_options));

            for (const SimdLevel level :
                 {SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2}) {
                SCOPED_TRACE(std::string(simdLevelName(level)) +
                             (many_pairs ? " many pairs" : " few pairs") +
                             " warm-up " + std::to_string(warmup));
                setSimdLevelForTest(level);
                std::vector<std::unique_ptr<IndirectPredictor>> predictors;
                std::vector<IndirectPredictor *> raw;
                for (const auto &column : columns) {
                    predictors.push_back(column.make());
                    raw.push_back(predictors.back().get());
                }
                SimOptions options;
                options.warmupBranches = warmup;
                TraversalStats traversal;
                options.traversal = &traversal;
                const std::vector<SimResult> many =
                    simulateFused(raw, trace, options);
                setSimdLevelForTest(initial);

                ASSERT_EQ(many.size(), columns.size());
                EXPECT_EQ(traversal.genericColumns, 0u);
                EXPECT_EQ(traversal.laneColumns, columns.size());
                for (std::size_t i = 0; i < columns.size(); ++i) {
                    EXPECT_EQ(many[i].branches, oracle[i].branches)
                        << columns[i].label;
                    EXPECT_EQ(many[i].misses, oracle[i].misses)
                        << columns[i].label;
                    EXPECT_EQ(many[i].noPrediction, oracle[i].noPrediction)
                        << columns[i].label;
                    EXPECT_EQ(many[i].tableOccupancy,
                              oracle[i].tableOccupancy)
                        << columns[i].label;
                    EXPECT_EQ(many[i].tableCapacity, oracle[i].tableCapacity)
                        << columns[i].label;
                }
            }
        }
    }
}

/**
 * One grid of every lane-engine kind around the block boundaries:
 * plain set-associative, tagless and unconstrained machines, a
 * two-component confidence hybrid with ties, a three-component one,
 * a selector hybrid, a set stack (1/2/4 ways at 64 sets), an LRU
 * stack (16/64/256 entries), and two generic columns.
 */
std::vector<SweepColumn>
blockBoundaryColumns()
{
    const auto spec = [](const std::string &text) {
        return [text]() { return makePredictorFromSpec(text); };
    };
    return {
        {"plain-p3", spec("twolevel:p=3,table=assoc4:256")},
        {"tagless-p2", spec("twolevel:p=2,table=tagless:256")},
        {"uncon-p1", spec("twolevel:p=1,table=unconstrained")},
        {"tie-1-4", spec("hybrid:p1=1,p2=4,table=assoc4:128,conf=1")},
        {"3comp",
         []() {
             HybridConfig config;
             config.components = {
                 paperTwoLevel(5, TableSpec::setAssoc(256, 4)),
                 paperTwoLevel(2, TableSpec::tagless(128)),
                 paperTwoLevel(0, TableSpec::setAssoc(512, 4))};
             config.confidenceBits = 1;
             return std::make_unique<HybridPredictor>(config);
         }},
        {"sel-2-5",
         spec("hybrid:p1=2,p2=5,table=assoc2:256,meta=selector")},
        {"set-1way", spec("twolevel:p=3,table=assoc1:64")},
        {"set-2way", spec("twolevel:p=3,table=assoc2:128")},
        {"lru-16", spec("twolevel:p=4,table=fullassoc:16")},
        {"lru-64", spec("twolevel:p=4,table=fullassoc:64")},
        {"lru-256", spec("twolevel:p=4,table=fullassoc:256")},
        {"btb", spec("btb")},
        {"cascaded",
         []() {
             return std::make_unique<CascadedPredictor>(
                 CascadedConfig::classic(256));
         }},
    };
}

/** The records of @p trace up to and including its @p indirect-th
 *  predicted-indirect record (all of them if it has fewer). */
Trace
indirectPrefix(const Trace &trace, std::size_t indirect)
{
    Trace prefix(trace.name());
    std::size_t seen = 0;
    for (const BranchRecord record : trace) {
        if (seen == indirect)
            break;
        prefix.append(record);
        seen += record.isPredictedIndirect() ? 1 : 0;
    }
    return prefix;
}

/** blockBoundaryColumns() fused over the first @p length indirect
 *  records of @p full (all of them if it has fewer), warm-up
 *  @p warmup, against the per-cell oracle. */
void
expectBlockGridMatchesOracle(const Trace &full, std::size_t length,
                             std::uint64_t warmup)
{
    SCOPED_TRACE("length " + std::to_string(length) + " warm-up " +
                 std::to_string(warmup));
    const auto columns = blockBoundaryColumns();
    const Trace trace = indirectPrefix(full, length);
    std::size_t indirect = 0;
    for (const BranchRecord record : trace)
        indirect += record.isPredictedIndirect() ? 1 : 0;
    TraversalStats traversal;
    const std::vector<SimResult> many =
        runFused(columns, trace, warmup, traversal);
    EXPECT_EQ(traversal.genericColumns, 2u);
    EXPECT_EQ(traversal.setStacks, 1u);
    EXPECT_EQ(traversal.setStackedMembers, 3u);
    EXPECT_EQ(traversal.lruStacks, 1u);
    EXPECT_EQ(traversal.stackedMembers, 3u);
    ASSERT_EQ(many.size(), columns.size());
    if (length != SIZE_MAX) {
        EXPECT_EQ(indirect, length); // idl is long enough
    }
    EXPECT_EQ(many[0].branches, indirect > warmup ? indirect - warmup : 0);
    expectSoloReferenceCounters(columns, trace, warmup, many);
}

TEST_F(FusedKernelTest, TracesAroundBlockBoundariesMatchPerCellOracle)
{
    SuiteRunner runner({"idl"}, /*emitConditionals=*/true);
    constexpr std::size_t B = kLaneBlockRecords;
    // Shorter than one block; exactly k blocks; k blocks +- 1 record.
    for (const std::size_t length :
         {B / 3, B - 1, B, B + 1, 3 * B - 1, 3 * B, 3 * B + 1})
        expectBlockGridMatchesOracle(runner.trace("idl"), length, 0);
}

TEST_F(FusedKernelTest, WarmupEndingInsideABlockMatchesPerCellOracle)
{
    SuiteRunner runner({"idl"}, /*emitConditionals=*/true);
    constexpr std::size_t B = kLaneBlockRecords;
    // Ending inside the first block, on its end, inside a later block,
    // one record before the trace's end, and past it.
    for (const std::uint64_t warmup : {B / 2, B, B + 77, 3 * B, 4 * B})
        expectBlockGridMatchesOracle(runner.trace("idl"), 3 * B + 1, warmup);
    // A trace shorter than one block, warmed up to its middle.
    expectBlockGridMatchesOracle(runner.trace("idl"), B / 3, B / 6);
    // The whole trace, with a warm-up long enough that the selectors'
    // warm-up training shows in their counts.
    expectBlockGridMatchesOracle(runner.trace("idl"), SIZE_MAX, 2 * B + 77);
}

TEST_F(FusedKernelTest, FusedGridMatchesPerCellGridSingleThread)
{
    setenv("IBP_THREADS", "1", 1);
    SuiteRunner runner({"idl", "perl", "self"},
                       /*emitConditionals=*/true);
    const auto columns = fusedColumns();

    const GridResult reference = perCellOracle(runner, columns);

    RunSession fused_session;
    RunMetrics metrics;
    fused_session.metrics = &metrics;
    const GridResult fused = runner.run(columns, fused_session);

    expectSameGrid(runner, columns, fused, reference);

    // Telemetry: every chunk fused, none fell back, and the kernel
    // bound the two-level/hybrid members while the extension
    // families declined.
    ASSERT_TRUE(metrics.hasSweepKernel());
    const SweepKernelStats sweep = metrics.sweepKernel();
    EXPECT_GT(sweep.groupsFused, 0u);
    EXPECT_EQ(sweep.groupsPerCell, 0u);
    EXPECT_GT(sweep.predictorsBound, 0u);
    EXPECT_GT(sweep.predictorsUnbound, 0u);

    // Fused cells carry the synthetic-seconds marker and the real
    // group wall time.
    for (const CellMetrics &cell : metrics.cells()) {
        EXPECT_TRUE(cell.secondsSynthetic) << cell.column;
        EXPECT_GE(cell.groupSeconds, cell.seconds) << cell.column;
    }

    // The telemetry round-trips through the JSON artifact.
    const RunMetrics reloaded = RunMetrics::fromJson(metrics.toJson());
    ASSERT_TRUE(reloaded.hasSweepKernel());
    EXPECT_EQ(reloaded.sweepKernel().groupsFused, sweep.groupsFused);
    EXPECT_EQ(reloaded.sweepKernel().predictorsBound,
              sweep.predictorsBound);
    ASSERT_FALSE(reloaded.cells().empty());
    EXPECT_TRUE(reloaded.cells()[0].secondsSynthetic);
}

TEST_F(FusedKernelTest, FusedGridMatchesAcrossThreadCounts)
{
    const auto columns = fusedColumns();

    setenv("IBP_THREADS", "8", 1);
    SuiteRunner parallel({"idl", "perl"}, /*emitConditionals=*/true);
    RunSession parallel_session;
    const GridResult fused = parallel.run(columns, parallel_session);

    setenv("IBP_THREADS", "1", 1);
    SuiteRunner serial({"idl", "perl"}, /*emitConditionals=*/true);
    const GridResult reference = perCellOracle(serial, columns);

    expectSameGrid(serial, columns, fused, reference);
}

TEST_F(FusedKernelTest, InjectedFusedFaultFallsBackPerCell)
{
    // A fault injected at the "fused" site kills every phase-1 chunk;
    // phase 2 must re-run the cells per-cell with bit-identical
    // results and ZERO failure records (the fallback is recovery,
    // not failure).
    SuiteRunner runner({"idl", "self"});
    const auto columns = fusedColumns();

    const GridResult clean = runner.run(columns);

    FaultInjector::configureGlobal("fused:1.0");
    RunMetrics metrics;
    RunSession session;
    session.metrics = &metrics;
    const GridResult faulted = runner.run(columns, session);
    FaultInjector::configureGlobal("");

    EXPECT_FALSE(faulted.partial());
    expectSameGrid(runner, columns, faulted, clean);
    EXPECT_EQ(metrics.failureCount(), 0u);
    EXPECT_EQ(metrics.cellCount(),
              columns.size() * runner.benchmarks().size());

    ASSERT_TRUE(metrics.hasSweepKernel());
    const SweepKernelStats sweep = metrics.sweepKernel();
    EXPECT_EQ(sweep.groupsFused, 0u);
    EXPECT_GT(sweep.fallbackInjected, 0u);
    EXPECT_EQ(sweep.groupsPerCell, sweep.fallbackInjected);
}

TEST_F(FusedKernelTest, SimArmedInjectorForcesPerCellAccounting)
{
    // Arming the "sim" site must disable phase 1 wholesale: sim
    // faults are defined per (cell, attempt), which only the
    // per-cell path can honour. Heavy transient faulting then
    // retries away without perturbing results.
    SuiteRunner runner({"idl", "self"});
    const std::vector<SweepColumn> columns = {
        {"btb", []() { return makePredictorFromSpec("btb"); }},
        {"2lev",
         []() {
             return makePredictorFromSpec(
                 "twolevel:p=3,table=assoc4:1024");
         }},
    };
    const GridResult clean = runner.run(columns);

    FaultInjector::configureGlobal("sim:0.5,seed=11");
    RunMetrics metrics;
    RunSession session;
    session.metrics = &metrics;
    session.retry.maxAttempts = 8;
    session.retry.initialBackoffSeconds = 0.0;
    const GridResult faulted = runner.run(columns, session);
    FaultInjector::configureGlobal("");

    EXPECT_FALSE(faulted.partial());
    expectSameGrid(runner, columns, faulted, clean);
    ASSERT_TRUE(metrics.hasSweepKernel());
    const SweepKernelStats sweep = metrics.sweepKernel();
    EXPECT_EQ(sweep.groupsFused, 0u);
    EXPECT_EQ(sweep.fallbackInjectorArmed, 2u); // one per benchmark
    EXPECT_EQ(sweep.groupsPerCell, 2u);
}

TEST_F(FusedKernelTest, FactoryErrorInChunkFallsBackAndIsolates)
{
    // A throwing factory poisons its whole phase-1 chunk (the fused
    // engine can't build the member set), but phase 2 isolation must
    // still complete every healthy cell and record exactly the bad
    // column's failures.
    SuiteRunner runner({"idl"});
    const std::vector<SweepColumn> columns = {
        {"good", []() { return makePredictorFromSpec("btb"); }},
        {"bad",
         []() -> std::unique_ptr<IndirectPredictor> {
             throw RunException(
                 RunError::permanent("factory exploded"));
         }},
    };
    RunMetrics metrics;
    RunSession session;
    session.metrics = &metrics;
    session.retry.maxAttempts = 2;
    session.retry.initialBackoffSeconds = 0.0;
    const GridResult grid = runner.run(columns, session);

    EXPECT_TRUE(grid.has("good", "idl"));
    EXPECT_FALSE(grid.has("bad", "idl"));
    ASSERT_EQ(grid.failures().size(), 1u);
    EXPECT_EQ(grid.failures()[0].column, "bad");
    EXPECT_EQ(grid.failures()[0].kind, ErrorKind::Permanent);
    EXPECT_NE(grid.failures()[0].error.find("factory exploded"),
              std::string::npos);

    ASSERT_TRUE(metrics.hasSweepKernel());
    const SweepKernelStats sweep = metrics.sweepKernel();
    EXPECT_EQ(sweep.fallbackFactory, sweep.groupsPerCell);
    EXPECT_GT(sweep.fallbackFactory, 0u);
}

/** The journal's cell lines, sorted (completion order is
 *  scheduling-dependent; content must not be). */
std::vector<std::string>
sortedJournalLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    std::sort(lines.begin(), lines.end());
    return lines;
}

TEST_F(FusedKernelTest, SchedulerIsDeterministicAcrossThreadCounts)
{
    // Satellite: IBP_THREADS=1, 2 and 8 must produce identical
    // result tables AND identical (order-normalised) checkpoint
    // journals - work stealing may reorder completion, never change
    // values.
    const auto columns = fusedColumns();
    CheckpointMeta meta;
    meta.slug = "determinism";
    meta.gitSha = "sha";
    meta.eventScale = 0.05;
    meta.quick = false;

    std::vector<std::string> rendered;
    std::vector<std::vector<std::string>> journals;
    for (const char *threads : {"1", "2", "8"}) {
        setenv("IBP_THREADS", threads, 1);
        const std::string path = testing::TempDir() +
                                 "/ibp_determinism_" + threads +
                                 ".jsonl";
        std::remove(path.c_str());
        SuiteRunner runner({"idl", "perl"},
                           /*emitConditionals=*/true);
        auto journal = CheckpointJournal::open(path, meta);
        ASSERT_TRUE(journal.ok());
        RunSession session;
        session.checkpoint = journal.value().get();
        const GridResult grid = runner.run(columns, session);
        EXPECT_FALSE(grid.partial());

        rendered.push_back(
            runner.benchmarkTable("determinism", grid, columns)
                .toCsv());
        journals.push_back(sortedJournalLines(path));
        std::remove(path.c_str());
    }
    EXPECT_EQ(rendered[0], rendered[1]);
    EXPECT_EQ(rendered[0], rendered[2]);
    EXPECT_EQ(journals[0], journals[1]);
    EXPECT_EQ(journals[0], journals[2]);
}

} // namespace
} // namespace ibp
