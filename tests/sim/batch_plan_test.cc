/**
 * @file
 * Tests of the batched grid plan (SuiteRunner::runBatch,
 * docs/PERFORMANCE.md "batched grid plan"): a batch of grids produces
 * exactly the counters of running its grids one at a time, at any
 * thread count and on both table implementations, while simulating
 * each distinct state machine once per benchmark; folded lane members own
 * no table storage; the spec-level chunk plan is deterministic and
 * keeps every shared machine inside one chunk; unbounded components
 * join their grid's one chunk, and a one-grid batch is one chunk;
 * LRU stack-mates share one chunk of their own, own no tables, and
 * form only from two or more flat-table machines; the full Figure 18 batch forms its set
 * stacks and folds its BTBs, with the reference tables' cells;
 * sharded ownership covers every cell exactly once; a lone shard
 * steals every foreign cell nobody holds; a batch drained mid-run
 * resumes from its journal bit-identically; a store-only batch serves a
 * warm store and throws at a miss before it journals or simulates; a
 * cell whose claim a peer gives up is simulated through the deferred
 * wait's claim; and a claimed, stored, journalled batch of more cells
 * than the descriptor limit stays exact.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "core/factory.hh"
#include "core/hybrid.hh"
#include "core/spec_codec.hh"
#include "core/two_level.hh"
#include "robust/fault_injection.hh"
#include "sim/result_store.hh"
#include "sim/spec_columns.hh"
#include "sim/suite_runner.hh"
#include "synth/benchmark_suite.hh"
#include "trace/trace_cache.hh"

#include <sys/resource.h>

#include "per_cell_oracle.hh"

namespace ibp {
namespace {

namespace fs = std::filesystem;

const std::vector<std::string> kBenchmarks = {"idl", "perl", "self"};

class BatchPlanTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setenv("IBP_EVENTS", "0.05", 1);
        TraceCache::configureGlobal("");
        FaultInjector::configureGlobal("");
        _dir = testing::TempDir() + "/ibp_batch_plan_test";
        fs::remove_all(_dir);
        fs::create_directories(_dir);
    }
    void
    TearDown() override
    {
        ResultStore::configureGlobal("");
        setTableImplementation(TableImpl::Flat);
        unsetenv("IBP_EVENTS");
        unsetenv("IBP_THREADS");
        fs::remove_all(_dir);
    }

    std::string _dir;
};

/**
 * A small Figure 17: one grid per p1 row, each row the hybrids
 * (p1, p2) over a shared component table plus the non-hybrid
 * diagonal, at two component sizes - every row shares its component
 * machines with the other rows of its size.
 */
std::vector<std::vector<SweepColumn>>
miniFig17()
{
    std::vector<std::vector<SweepColumn>> rows;
    for (const std::uint64_t comp : {256u, 1024u}) {
        for (unsigned p1 = 0; p1 <= 3; ++p1) {
            std::vector<SweepColumn> columns;
            for (unsigned p2 = 0; p2 <= 3; ++p2) {
                const std::string label = std::to_string(p2);
                if (p1 == p2) {
                    columns.push_back(specColumn(
                        label, paperTwoLevel(
                                   p1, TableSpec::setAssoc(2 * comp, 4))));
                } else {
                    columns.push_back(specColumn(
                        label, paperHybrid(p1, p2,
                                           TableSpec::setAssoc(comp, 4))));
                }
            }
            rows.push_back(std::move(columns));
        }
    }
    return rows;
}

/** miniFig17 plus a grid of unbounded tables (a component of unknown
 *  size) and a grid of a bounded BTB (which runs as its p=0 two-level
 *  machine) and an opaque keyed column (no machine list: a two-level
 *  column the plan cannot see into). */
std::vector<std::vector<SweepColumn>>
mixedBatch()
{
    auto grids = miniFig17();
    grids.push_back(
        {specColumn("uncon", paperTwoLevel(2, TableSpec::unconstrained())),
         specColumn("uncon-hybrid",
                    paperHybrid(1, 2, TableSpec::unconstrained()))});
    const TwoLevelConfig opaque =
        paperTwoLevel(2, TableSpec::setAssoc(1024, 4));
    grids.push_back(
        {btbColumn("btb", TableSpec::fullyAssoc(256), true),
         SweepColumn{"opaque",
                     [opaque]() {
                         return std::make_unique<TwoLevelPredictor>(opaque);
                     },
                     specHash(opaque)}});
    return grids;
}

/** (grid id, label, benchmark, branches, misses, occupancy, capacity,
 *  miss %) of one cell. */
using CellTuple =
    std::tuple<unsigned, std::string, std::string, std::uint64_t,
               std::uint64_t, std::uint64_t, std::uint64_t, double>;

/** Every cell of @p results (over @p benchmarks) with the integer
 *  counters its run persisted into the store at @p dir, sorted. */
std::vector<CellTuple>
storedCells(const std::string &dir,
            const std::vector<std::vector<SweepColumn>> &grids,
            const std::vector<GridResult> &results,
            const std::vector<std::string> &benchmarks = kBenchmarks)
{
    const ResultStore store(dir);
    std::vector<CellTuple> cells;
    for (unsigned g = 0; g < grids.size(); ++g) {
        for (const SweepColumn &column : grids[g]) {
            for (const std::string &name : benchmarks) {
                const auto loaded = store.load(ResultStore::cellKey(
                    benchmarkTraceCacheKey(name, false),
                    column.specHash));
                EXPECT_EQ(loaded.status, ResultStore::LoadStatus::Hit)
                    << column.label << " x " << name;
                const StoredResult &cell = loaded.result;
                cells.emplace_back(g, column.label, name, cell.branches,
                                   cell.misses, cell.tableOccupancy,
                                   cell.tableCapacity,
                                   results[g].get(column.label, name));
            }
        }
    }
    std::sort(cells.begin(), cells.end());
    return cells;
}

TEST_F(BatchPlanTest, BatchMatchesOneGridAtATime)
{
    const auto grids = mixedBatch();
    std::vector<std::vector<CellTuple>> runs;
    for (const TableImpl impl : {TableImpl::Flat, TableImpl::Reference}) {
        setTableImplementation(impl);
        for (const char *threads : {"1", "4"}) {
            setenv("IBP_THREADS", threads, 1);
            const std::string tag =
                std::string(tableImplName(impl)) + "-" + threads;
            SuiteRunner runner(kBenchmarks);

            ResultStore::configureGlobal(_dir + "/batch-" + tag);
            RunMetrics metrics;
            RunSession batch_session;
            batch_session.metrics = &metrics;
            const std::vector<GridResult> batched =
                runner.runBatch(grids, batch_session);
            ASSERT_EQ(batched.size(), grids.size());
            EXPECT_EQ(batch_session.nextGridId, grids.size());
            for (const GridResult &grid : batched)
                EXPECT_FALSE(grid.partial());

            ResultStore::configureGlobal(_dir + "/single-" + tag);
            RunSession single_session;
            std::vector<GridResult> single;
            for (const auto &grid : grids)
                single.push_back(runner.run(grid, single_session));

            const auto batched_cells =
                storedCells(_dir + "/batch-" + tag, grids, batched);
            EXPECT_EQ(batched_cells,
                      storedCells(_dir + "/single-" + tag, grids, single))
                << tag;
            runs.push_back(batched_cells);

            // Each distinct machine is simulated once per benchmark,
            // whatever the thread count: 8 component and 8 diagonal
            // machines in the fig17 rows, 2 unbounded ones, the BTB's
            // p=0 machine and the opaque two-level column.
            EXPECT_EQ(metrics.simd().laneMachines,
                      20u * kBenchmarks.size())
                << tag;
            EXPECT_EQ(metrics.sweepKernel().groupsPerCell, 0u) << tag;
        }
    }
    for (const auto &run : runs)
        EXPECT_EQ(run, runs.front());
}

TEST_F(BatchPlanTest, FoldedMemberOwnsNoTable)
{
    SuiteRunner runner({"idl"});
    const Trace &trace = runner.trace("idl");
    const TableSpec table = TableSpec::setAssoc(1024, 4);
    TwoLevelPredictor owner(paperTwoLevel(3, table));
    TwoLevelPredictor folded(paperTwoLevel(3, table));
    HybridPredictor hybrid(paperHybrid(3, 5, table));
    // Tables are allocated on first use, never at construction.
    EXPECT_FALSE(owner.ownsTable());

    const std::vector<IndirectPredictor *> raw = {&owner, &folded, &hybrid};
    SimOptions options;
    TraversalStats traversal;
    options.traversal = &traversal;
    const std::vector<SimResult> fused = simulateFused(raw, trace, options);
    // The second plain column and the hybrid's p=3 component fold
    // onto the first column's machine: two machines in all.
    EXPECT_EQ(traversal.foldedMembers, 2u);
    EXPECT_EQ(traversal.laneMachines, 2u);

    EXPECT_TRUE(owner.ownsTable());
    EXPECT_FALSE(folded.ownsTable());
    EXPECT_FALSE(hybrid.component(0).ownsTable());
    EXPECT_TRUE(hybrid.component(1).ownsTable());

    // Folded members still report their machine's state,
    // bit-identically to solo runs.
    TwoLevelPredictor solo(paperTwoLevel(3, table));
    const SimResult alone = simulate(solo, trace);
    EXPECT_EQ(fused[1].misses, alone.misses);
    EXPECT_EQ(fused[1].tableOccupancy, alone.tableOccupancy);
    EXPECT_EQ(fused[1].tableCapacity, alone.tableCapacity);
    HybridPredictor solo_hybrid(paperHybrid(3, 5, table));
    const SimResult alone_hybrid = simulate(solo_hybrid, trace);
    EXPECT_EQ(fused[2].misses, alone_hybrid.misses);
    EXPECT_EQ(fused[2].tableOccupancy, alone_hybrid.tableOccupancy);
    EXPECT_EQ(fused[2].tableCapacity, alone_hybrid.tableCapacity);
}

/**
 * The Figure 18 batch (bench/fig18_best_predictors.cc) over @p sizes
 * and @p pathLengths: per size, a BTB grid and one grid per
 * organisation over the path lengths. @p names receives each batch
 * column's "<org>-<size>-p<p>" (or "btb-<size>").
 */
std::vector<std::vector<SweepColumn>>
fig18Grids(const std::vector<std::uint64_t> &sizes,
           const std::vector<unsigned> &pathLengths,
           std::vector<std::string> &names)
{
    std::vector<std::vector<SweepColumn>> grids;
    for (const std::uint64_t size : sizes) {
        const std::string entries = std::to_string(size);
        grids.push_back(
            {btbColumn("btb", TableSpec::fullyAssoc(size), true)});
        names.push_back("btb-" + entries);
        for (const std::string org :
             {"tagless", "assoc2", "assoc4", "fullassoc"}) {
            std::vector<SweepColumn> columns;
            for (const unsigned p : pathLengths) {
                const TableSpec spec =
                    org == "tagless"  ? TableSpec::tagless(size)
                    : org == "assoc2" ? TableSpec::setAssoc(size, 2)
                    : org == "assoc4" ? TableSpec::setAssoc(size, 4)
                                      : TableSpec::fullyAssoc(size);
                columns.push_back(specColumn("p=" + std::to_string(p),
                                             paperTwoLevel(p, spec)));
                names.push_back(org + "-" + entries + "-p" +
                                std::to_string(p));
            }
            grids.push_back(std::move(columns));
        }
    }
    return grids;
}

/** The quick Figure 18 batch: sizes 256, 2048, 16384 over p = 0, 2,
 *  4. */
std::vector<std::vector<SweepColumn>>
quickFig18(std::vector<std::string> &names)
{
    return fig18Grids({256, 2048, 16384}, {0, 2, 4}, names);
}

/** @p chunk's columns by name, unit by unit. */
std::string
describeChunk(const ChunkPlan::Chunk &chunk,
              const std::vector<std::string> &names)
{
    std::string text;
    for (const auto &unit : chunk.units) {
        text += text.empty() ? "{" : " {";
        for (const std::size_t c : unit)
            text += " " + names[c];
        text += " }";
    }
    return text;
}

TEST_F(BatchPlanTest, StackMatesShareOneChunk)
{
    std::vector<std::string> names;
    const ChunkPlan plan = planChunks(quickFig18(names));
    // Each path length's fully-associative columns, one per size grid,
    // are one component in a chunk of its own that no sized component
    // packs into; the BTBs, which run as the p=0 machines, join the
    // p=0 stack.
    std::vector<std::string> stack_chunks;
    for (const ChunkPlan::Chunk &chunk : plan.chunks) {
        const std::string text = describeChunk(chunk, names);
        if (text.find("fullassoc") == std::string::npos)
            continue;
        stack_chunks.push_back(text);
        EXPECT_FALSE(chunk.packable);
        EXPECT_EQ(chunk.units.size(), 1u);
    }
    EXPECT_EQ(stack_chunks,
              (std::vector<std::string>{
                  "{ btb-256 fullassoc-256-p0 btb-2048 fullassoc-2048-p0 "
                  "btb-16384 fullassoc-16384-p0 }",
                  "{ fullassoc-256-p2 fullassoc-2048-p2 "
                  "fullassoc-16384-p2 }",
                  "{ fullassoc-256-p4 fullassoc-2048-p4 "
                  "fullassoc-16384-p4 }"}));
}

TEST_F(BatchPlanTest, QuickFig18PacksItsOtherChunksAsWithoutStacks)
{
    // The chunks of quick fig18 before stacks existed (each
    // fully-associative machine its own sized component), with the
    // fully-associative columns and the BTBs (which join the p=0
    // stack) taken out: stacks, which neither pack nor set the
    // packing cap, leave every other chunk as it was.
    const std::vector<std::string> unstacked = {
        "{ tagless-256-p0 } { tagless-256-p2 } { tagless-256-p4 } "
        "{ assoc2-256-p0 } { assoc2-256-p2 } { assoc2-256-p4 } "
        "{ assoc4-256-p0 } { assoc4-256-p2 } { assoc4-256-p4 } "
        "{ tagless-2048-p0 } { tagless-2048-p2 } { tagless-2048-p4 } "
        "{ assoc2-2048-p0 } { assoc2-2048-p2 } { assoc2-2048-p4 }",
        "{ assoc4-2048-p0 } { assoc4-2048-p2 } { assoc4-2048-p4 }",
        "{ tagless-16384-p0 }",
        "{ tagless-16384-p2 }",
        "{ tagless-16384-p4 }",
        "{ assoc2-16384-p0 }",
        "{ assoc2-16384-p2 }",
        "{ assoc2-16384-p4 }",
        "{ assoc4-16384-p0 }",
        "{ assoc4-16384-p2 }",
        "{ assoc4-16384-p4 }",
    };
    std::vector<std::string> names;
    const ChunkPlan plan = planChunks(quickFig18(names));
    std::vector<std::string> others;
    for (const ChunkPlan::Chunk &chunk : plan.chunks) {
        const std::string text = describeChunk(chunk, names);
        if (text.find("fullassoc") == std::string::npos)
            others.push_back(text);
    }
    EXPECT_EQ(others, unstacked);
}

TEST_F(BatchPlanTest, StackMembersOwnNoTable)
{
    SuiteRunner runner({"idl"});
    const Trace &trace = runner.trace("idl");
    TwoLevelPredictor small(paperTwoLevel(3, TableSpec::fullyAssoc(256)));
    TwoLevelPredictor large(paperTwoLevel(3, TableSpec::fullyAssoc(1024)));
    HybridPredictor hybrid(
        paperHybrid(3, 5, TableSpec::fullyAssoc(256)));

    const std::vector<IndirectPredictor *> raw = {&small, &large, &hybrid};
    SimOptions options;
    TraversalStats traversal;
    options.traversal = &traversal;
    const std::vector<SimResult> fused = simulateFused(raw, trace, options);

    // p=3 at 256 and 1024 entries are one stack (the hybrid's p=3
    // component folds onto it); the lone p=5 machine drives a table.
    EXPECT_EQ(traversal.lruStacks, 1u);
    EXPECT_EQ(traversal.stackedMembers, 2u);
    EXPECT_EQ(traversal.laneMachines, 3u);
    EXPECT_EQ(traversal.foldedMembers, 1u);
    EXPECT_FALSE(small.ownsTable());
    EXPECT_FALSE(large.ownsTable());
    EXPECT_FALSE(hybrid.component(0).ownsTable());
    EXPECT_TRUE(hybrid.component(1).ownsTable());

    for (std::size_t i = 0; i < raw.size(); ++i) {
        const auto solo =
            i == 2 ? std::unique_ptr<IndirectPredictor>(
                         std::make_unique<HybridPredictor>(paperHybrid(
                             3, 5, TableSpec::fullyAssoc(256))))
                   : std::unique_ptr<IndirectPredictor>(
                         std::make_unique<TwoLevelPredictor>(
                             i == 0 ? small.config() : large.config()));
        const SimResult alone = simulate(*solo, trace);
        EXPECT_EQ(fused[i].misses, alone.misses) << i;
        EXPECT_EQ(fused[i].noPrediction, alone.noPrediction) << i;
        EXPECT_EQ(fused[i].tableOccupancy, alone.tableOccupancy) << i;
        EXPECT_EQ(fused[i].tableCapacity, alone.tableCapacity) << i;
    }
}

TEST_F(BatchPlanTest, LoneFullyAssocMachineFormsNoStack)
{
    // Planner: a fully-associative machine with no stack-mate is a
    // sized component like any other table, so the two below (no
    // mates: their path lengths differ) pack together up to the
    // 512-entry cap.
    const std::vector<std::vector<SweepColumn>> grids = {
        {specColumn("fa3", paperTwoLevel(3, TableSpec::fullyAssoc(256))),
         specColumn("sa3",
                    paperTwoLevel(3, TableSpec::setAssoc(512, 4)))},
        {specColumn("fa5", paperTwoLevel(5, TableSpec::fullyAssoc(256)))},
    };
    const ChunkPlan plan = planChunks(grids);
    ASSERT_EQ(plan.chunks.size(), 2u);
    EXPECT_EQ(plan.chunkOf[0], plan.chunkOf[2]);
    EXPECT_NE(plan.unitOf[0], plan.unitOf[2]);
    EXPECT_TRUE(plan.chunks[plan.chunkOf[0]].packable);

    // Lane plan: no stack of one, so each machine drives its table.
    SuiteRunner runner({"idl"});
    TwoLevelPredictor p3(paperTwoLevel(3, TableSpec::fullyAssoc(256)));
    TwoLevelPredictor p5(paperTwoLevel(5, TableSpec::fullyAssoc(256)));
    const std::vector<IndirectPredictor *> raw = {&p3, &p5};
    SimOptions options;
    TraversalStats traversal;
    options.traversal = &traversal;
    simulateFused(raw, runner.trace("idl"), options);
    EXPECT_EQ(traversal.lruStacks, 0u);
    EXPECT_EQ(traversal.laneMachines, 2u);
    EXPECT_TRUE(p3.ownsTable());
    EXPECT_TRUE(p5.ownsTable());
}

TEST_F(BatchPlanTest, ReferenceTablesFormNoStackAndMatch)
{
    // A fully-associative size sweep, one grid per size as in fig11
    // and fig18: on the flat tables each path length is one stack, on
    // the reference tables every size drives its own LRU list - with
    // the same cells.
    std::vector<std::vector<SweepColumn>> grids;
    for (const std::uint64_t size : {16u, 128u, 1024u}) {
        std::vector<SweepColumn> row;
        for (const unsigned p : {1u, 4u}) {
            row.push_back(specColumn(
                "p=" + std::to_string(p),
                paperTwoLevel(p, TableSpec::fullyAssoc(size))));
        }
        row.push_back(specColumn(
            "hybrid", paperHybrid(1, 4, TableSpec::fullyAssoc(size))));
        grids.push_back(std::move(row));
    }
    setenv("IBP_THREADS", "2", 1);
    std::vector<std::vector<CellTuple>> runs;
    for (const TableImpl impl : {TableImpl::Flat, TableImpl::Reference}) {
        setTableImplementation(impl);
        const std::string store =
            _dir + "/store-" + tableImplName(impl);
        ResultStore::configureGlobal(store);
        SuiteRunner runner(kBenchmarks);
        RunMetrics metrics;
        RunSession session;
        session.metrics = &metrics;
        const std::vector<GridResult> results =
            runner.runBatch(grids, session);
        runs.push_back(storedCells(store, grids, results));

        const bool flat = impl == TableImpl::Flat;
        EXPECT_EQ(metrics.simd().lruStacks,
                  flat ? 2 * kBenchmarks.size() : 0u);
        EXPECT_EQ(metrics.simd().stackedMembers,
                  flat ? 6 * kBenchmarks.size() : 0u);
        EXPECT_EQ(metrics.simd().laneMachines, 6 * kBenchmarks.size());
    }
    EXPECT_EQ(runs[0], runs[1]);
}

TEST_F(BatchPlanTest, FullFig18SetStacksMatchReferenceTables)
{
    // The full Figure 18 batch: 10 sizes x 7 path lengths x 4
    // organisations, plus the BTB, on two benchmarks. Quick fig18's
    // sizes sit 8x apart and form no set stack, so this is the shape
    // that runs fig18's set stacks (2-way at N entries with 4-way at
    // 2N) end to end.
    setenv("IBP_EVENTS", "0.02", 1);
    setenv("IBP_THREADS", "2", 1);
    const std::vector<std::string> benchmarks = {"idl", "perl"};
    std::vector<std::string> names;
    const auto grids = fig18Grids(
        {64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768},
        {0, 1, 2, 3, 4, 5, 6}, names);
    ASSERT_EQ(names.size(), 290u);
    // Planner: a set stack counts its largest member's table bytes, so
    // the largest one (assoc2-16K with assoc4-32K) packs up to the cap
    // of one 32K-entry table and raises it no higher.
    const ChunkPlan plan = planChunks(grids);
    std::uint64_t fullest = 0;
    for (const ChunkPlan::Chunk &chunk : plan.chunks) {
        if (chunk.packable)
            fullest = std::max(fullest, chunk.bytes);
    }
    EXPECT_EQ(fullest, 32768 * sizeof(TableEntry));

    std::vector<std::vector<CellTuple>> runs;
    for (const TableImpl impl : {TableImpl::Flat, TableImpl::Reference}) {
        setTableImplementation(impl);
        const std::string store = _dir + "/store-" + tableImplName(impl);
        ResultStore::configureGlobal(store);
        SuiteRunner runner(benchmarks);
        RunMetrics metrics;
        RunSession session;
        session.metrics = &metrics;
        const std::vector<GridResult> results =
            runner.runBatch(grids, session);
        runs.push_back(storedCells(store, grids, results, benchmarks));

        // Per benchmark and path length: 9 set stacks (assoc2 64..16K
        // with assoc4 128..32K) and 2 lone set-associative tables
        // (assoc4-64, assoc2-32K); the fully-associative sizes are one
        // LRU stack, and every BTB folds onto its p=0 machine.
        const bool flat = impl == TableImpl::Flat;
        const std::size_t n = benchmarks.size();
        EXPECT_EQ(metrics.simd().setStacks, flat ? 63 * n : 0u);
        EXPECT_EQ(metrics.simd().setStackedMembers, flat ? 126 * n : 0u);
        EXPECT_EQ(metrics.simd().lruStacks, flat ? 7 * n : 0u);
        EXPECT_EQ(metrics.simd().stackedMembers, flat ? 70 * n : 0u);
        EXPECT_EQ(metrics.simd().genericColumns, 0u);
        EXPECT_EQ(metrics.simd().laneMachines, 280 * n);
    }
    EXPECT_EQ(runs[0], runs[1]);
}

TEST_F(BatchPlanTest, ChunkPlanKeepsSharedMachinesTogether)
{
    const auto grids = mixedBatch();
    const ChunkPlan plan = planChunks(grids);
    const ChunkPlan again = planChunks(grids);
    EXPECT_EQ(plan.chunkOf, again.chunkOf);
    EXPECT_EQ(plan.unitOf, again.unitOf);
    ASSERT_EQ(plan.chunks.size(), again.chunks.size());
    for (std::size_t c = 0; c < plan.chunks.size(); ++c)
        EXPECT_EQ(plan.chunks[c].units, again.chunks[c].units);

    // Batch columns: 4 rows x 4 columns per component size, then the
    // unbounded grid (32, 33) and the opaque grid (34, 35).
    const auto column = [](std::size_t comp_index, unsigned p1,
                           unsigned p2) {
        return comp_index * 16 + p1 * 4 + p2;
    };
    for (std::size_t comp_index = 0; comp_index < 2; ++comp_index) {
        // Every hybrid of a component size is one component: one
        // chunk, one unit.
        const std::size_t first = column(comp_index, 0, 1);
        for (unsigned p1 = 0; p1 <= 3; ++p1) {
            for (unsigned p2 = 0; p2 <= 3; ++p2) {
                if (p1 == p2)
                    continue;
                const std::size_t c = column(comp_index, p1, p2);
                EXPECT_EQ(plan.chunkOf[c], plan.chunkOf[first]);
                EXPECT_EQ(plan.unitOf[c], plan.unitOf[first]);
            }
        }
    }
    // The unbounded component shares its machine (p=2, unconstrained)
    // between both of its columns, and sits in a chunk of its own.
    EXPECT_EQ(plan.chunkOf[32], plan.chunkOf[33]);
    EXPECT_EQ(plan.unitOf[32], plan.unitOf[33]);
    EXPECT_FALSE(plan.chunks[plan.chunkOf[32]].packable);
    EXPECT_EQ(plan.chunks[plan.chunkOf[32]].units.size(), 1u);
    // The BTB runs as its p=0 machine, a sized component that packs;
    // the opaque column is a chunk of its own.
    EXPECT_NE(plan.chunkOf[34], plan.chunkOf[35]);
    EXPECT_TRUE(plan.chunks[plan.chunkOf[34]].packable);
    EXPECT_FALSE(plan.chunks[plan.chunkOf[35]].packable);
    EXPECT_EQ(plan.chunks[plan.chunkOf[35]].units.size(), 1u);

    // No packed chunk holds more table bytes than the largest
    // component: the four 1024-entry component machines.
    const std::uint64_t largest = 4 * 1024 * sizeof(TableEntry);
    for (const ChunkPlan::Chunk &chunk : plan.chunks) {
        if (chunk.packable) {
            EXPECT_LE(chunk.bytes, largest);
        }
    }
}

TEST_F(BatchPlanTest, UnboundedComponentsJoinTheirGridsChunk)
{
    // The planner cannot size an unbounded table by bytes, so each
    // component holding one joins its grid's one unpackable chunk as
    // a unit - beside that grid's opaque columns - instead of taking
    // a chunk (and a traversal) of its own. The hybrid shares its
    // p=2 machine with the "p2" column, so those two are one unit.
    const TwoLevelConfig opaque =
        paperTwoLevel(2, TableSpec::setAssoc(1024, 4));
    const std::vector<std::vector<SweepColumn>> grids = {
        {specColumn("p1", paperTwoLevel(1, TableSpec::unconstrained())),
         specColumn("p2", paperTwoLevel(2, TableSpec::unconstrained())),
         SweepColumn{"opaque",
                     [opaque]() {
                         return std::make_unique<TwoLevelPredictor>(opaque);
                     }},
         specColumn("hybrid",
                    paperHybrid(2, 4, TableSpec::unconstrained())),
         specColumn("bounded",
                    paperTwoLevel(3, TableSpec::setAssoc(1024, 4)))},
        {specColumn("p5", paperTwoLevel(5, TableSpec::unconstrained())),
         specColumn("p6", paperTwoLevel(6, TableSpec::unconstrained()))},
    };
    const std::vector<std::string> names = {"p1",     "p2", "opaque",
                                            "hybrid", "bounded",
                                            "p5",     "p6"};
    const ChunkPlan plan = planChunks(grids);
    ASSERT_EQ(plan.chunks.size(), 3u);
    EXPECT_EQ(describeChunk(plan.chunks[0], names),
              "{ p1 } { p2 hybrid } { opaque }");
    EXPECT_FALSE(plan.chunks[0].packable);
    EXPECT_EQ(describeChunk(plan.chunks[1], names), "{ bounded }");
    EXPECT_TRUE(plan.chunks[1].packable);
    EXPECT_EQ(describeChunk(plan.chunks[2], names), "{ p5 } { p6 }");
    EXPECT_FALSE(plan.chunks[2].packable);
}

TEST_F(BatchPlanTest, OneGridBatchIsOneChunk)
{
    // Three equal-size components and an LRU stack: batched as two
    // grids, the packing cap (the largest component) keeps each
    // component in a chunk of its own and the stack gets one too; a
    // one-grid batch has nothing to batch and is one chunk, a unit per
    // component, as a one-grid run always fused it.
    const auto column = [](unsigned p, const TableSpec &table) {
        return specColumn("p" + std::to_string(p) + "-" + table.describe(),
                          paperTwoLevel(p, table));
    };
    const std::vector<SweepColumn> row = {
        column(1, TableSpec::setAssoc(4096, 4)),
        column(2, TableSpec::tagless(4096)),
        column(3, TableSpec::fullyAssoc(256)),
        column(4, TableSpec::setAssoc(4096, 1)),
        column(3, TableSpec::fullyAssoc(1024)),
    };
    const std::vector<std::string> names = {"sa1", "tl2", "fa3-256",
                                            "dm4", "fa3-1024"};
    const ChunkPlan one = planChunks({row});
    ASSERT_EQ(one.chunks.size(), 1u);
    EXPECT_EQ(describeChunk(one.chunks[0], names),
              "{ sa1 } { tl2 } { fa3-256 fa3-1024 } { dm4 }");
    EXPECT_FALSE(one.chunks[0].packable);

    const ChunkPlan two = planChunks(
        {{row[0], row[1], row[2]}, {row[3], row[4]}});
    ASSERT_EQ(two.chunks.size(), 4u);
    EXPECT_EQ(describeChunk(two.chunks[0], names), "{ sa1 }");
    EXPECT_EQ(describeChunk(two.chunks[1], names), "{ tl2 }");
    EXPECT_EQ(describeChunk(two.chunks[2], names), "{ fa3-256 fa3-1024 }");
    EXPECT_EQ(describeChunk(two.chunks[3], names), "{ dm4 }");
}

TEST_F(BatchPlanTest, ShardsCoverEveryCellExactlyOnce)
{
    const auto grids = miniFig17();
    SuiteRunner runner(kBenchmarks);
    RunSession reference_session;
    const std::vector<GridResult> reference =
        runner.runBatch(grids, reference_session);

    const ChunkPlan plan = planChunks(grids);
    std::size_t cells = 0;
    for (const auto &grid : grids)
        cells += grid.size() * kBenchmarks.size();

    for (const unsigned shards : {2u, 4u}) {
        // The cells each shard owns, per the plan.
        std::vector<unsigned> owned(shards, 0);
        for (std::size_t c = 0; c < plan.chunkOf.size(); ++c) {
            for (std::size_t b = 0; b < kBenchmarks.size(); ++b) {
                const unsigned owner =
                    shardOwner(b, plan.chunkOf[c], shards);
                ASSERT_LT(owner, shards);
                ++owned[owner];
            }
        }

        const std::string store =
            _dir + "/shards-" + std::to_string(shards);
        ResultStore::configureGlobal(store);
        unsigned stored = 0;
        for (unsigned k = 0; k < shards; ++k) {
            RunMetrics metrics;
            RunSession session;
            session.metrics = &metrics;
            session.shardIndex = k;
            session.shardCount = shards;
            runner.runBatch(grids, session);
            EXPECT_GT(owned[k], 0u);
            EXPECT_EQ(metrics.resultStore().stores, owned[k])
                << "shard " << k << "/" << shards;
            stored += metrics.resultStore().stores;
        }
        EXPECT_EQ(stored, cells);

        // The merge pass serves every cell from the store,
        // bit-identically to the in-process batch.
        RunMetrics merge_metrics;
        RunSession merge;
        merge.metrics = &merge_metrics;
        const std::vector<GridResult> merged = runner.runBatch(grids, merge);
        EXPECT_EQ(merge_metrics.resultStore().hits, cells);
        EXPECT_EQ(merge_metrics.resultStore().misses, 0u);
        for (std::size_t g = 0; g < grids.size(); ++g) {
            for (const SweepColumn &column : grids[g]) {
                for (const std::string &name : kBenchmarks) {
                    EXPECT_EQ(merged[g].get(column.label, name),
                              reference[g].get(column.label, name));
                }
            }
        }
        ResultStore::configureGlobal("");
    }
}

TEST_F(BatchPlanTest, ShardStealsForeignTasksNobodyStarted)
{
    const auto grids = miniFig17();
    SuiteRunner runner(kBenchmarks);
    RunSession reference_session;
    const std::vector<GridResult> reference =
        runner.runBatch(grids, reference_session);
    const ChunkPlan plan = planChunks(grids);
    const std::size_t cells = 32 * kBenchmarks.size();

    // Shard 0 of 2 runs alone: it finishes its own tasks, then steals
    // every foreign task fused - except the one cell a live peer
    // holds, which stays absent (its owner's), not failed.
    ResultStore::configureGlobal(_dir + "/store");
    std::size_t owned = 0;
    const SweepColumn *held_column = nullptr;
    std::size_t held_grid = 0;
    std::size_t column_index = 0;
    for (std::size_t g = 0; g < grids.size(); ++g) {
        for (const SweepColumn &column : grids[g]) {
            for (std::size_t b = 0; b < kBenchmarks.size(); ++b) {
                if (shardOwner(b, plan.chunkOf[column_index], 2) == 0)
                    ++owned;
                else if (held_column == nullptr && b == 1) {
                    held_column = &column;
                    held_grid = g;
                }
            }
            ++column_index;
        }
    }
    ASSERT_NE(held_column, nullptr);
    CellClaims peer = ResultStore::global()->claims();
    ASSERT_TRUE(peer.tryClaim(ResultStore::cellKey(
        benchmarkTraceCacheKey(kBenchmarks[1], false),
        held_column->specHash)));

    RunMetrics metrics;
    RunSession session;
    session.metrics = &metrics;
    session.shardIndex = 0;
    session.shardCount = 2;
    session.shardSteal = true;
    session.cellClaims = true;
    const std::vector<GridResult> results = runner.runBatch(grids, session);
    peer.release();

    EXPECT_EQ(metrics.resultStore().stores, cells - 1);
    EXPECT_EQ(metrics.resultStore().stolen, cells - 1 - owned);
    EXPECT_EQ(metrics.resultStore().claims, owned);
    std::size_t present = 0;
    for (std::size_t g = 0; g < grids.size(); ++g) {
        EXPECT_FALSE(results[g].partial());
        for (const SweepColumn &column : grids[g]) {
            for (const std::string &name : kBenchmarks) {
                if (!results[g].has(column.label, name))
                    continue;
                ++present;
                EXPECT_EQ(results[g].get(column.label, name),
                          reference[g].get(column.label, name));
            }
        }
    }
    EXPECT_EQ(present, cells - 1);
    EXPECT_FALSE(results[held_grid].has(held_column->label, kBenchmarks[1]));
}

TEST_F(BatchPlanTest, DrainedBatchResumesBitIdentically)
{
    setenv("IBP_THREADS", "2", 1);
    const auto grids = miniFig17();
    SuiteRunner runner(kBenchmarks);
    RunSession clean;
    const std::vector<GridResult> reference = runner.runBatch(grids, clean);
    const std::size_t cells = 32 * kBenchmarks.size();

    CheckpointMeta meta;
    meta.slug = "batch-drain";
    meta.gitSha = "test";
    meta.eventScale = 0.05;
    const std::string path = _dir + "/batch.ckpt";

    // Drain as soon as the first cell resolves: the chunks already
    // running finish and are journalled, the rest never start.
    std::size_t present = 0;
    {
        auto journal = CheckpointJournal::open(path, meta);
        ASSERT_TRUE(journal.ok());
        std::atomic<bool> abort{false};
        RunSession session;
        session.checkpoint = journal.value().get();
        session.abort = &abort;
        session.onCellFinished = [&abort]() { abort.store(true); };
        const std::vector<GridResult> drained =
            runner.runBatch(grids, session);
        for (std::size_t g = 0; g < grids.size(); ++g) {
            EXPECT_FALSE(drained[g].partial());
            for (const SweepColumn &column : grids[g]) {
                for (const std::string &name : kBenchmarks) {
                    if (!drained[g].has(column.label, name))
                        continue;
                    ++present;
                    EXPECT_EQ(drained[g].get(column.label, name),
                              reference[g].get(column.label, name));
                }
            }
        }
    }
    EXPECT_GT(present, 0u);
    EXPECT_LT(present, cells);

    // Resume: the journal restores exactly the drained run's cells
    // and the rest simulate, bit-identically to the clean batch.
    {
        auto journal = CheckpointJournal::open(path, meta);
        ASSERT_TRUE(journal.ok());
        EXPECT_EQ(journal.value()->restoredCells(), present);
        RunSession session;
        session.checkpoint = journal.value().get();
        const std::vector<GridResult> resumed =
            runner.runBatch(grids, session);
        for (std::size_t g = 0; g < grids.size(); ++g) {
            EXPECT_FALSE(resumed[g].partial());
            for (const SweepColumn &column : grids[g]) {
                for (const std::string &name : kBenchmarks) {
                    ASSERT_TRUE(resumed[g].has(column.label, name));
                    EXPECT_EQ(resumed[g].get(column.label, name),
                              reference[g].get(column.label, name));
                }
            }
        }
    }
    auto journal = CheckpointJournal::open(path, meta);
    ASSERT_TRUE(journal.ok());
    EXPECT_EQ(journal.value()->restoredCells(), cells);
}

TEST_F(BatchPlanTest, StoreOnlyServesAWarmStoreAndThrowsBeforeAnyWork)
{
    // Every factory call is counted: a store-only run must build no
    // predictor, warm or not.
    std::atomic<unsigned> made{0};
    auto grids = miniFig17();
    std::size_t cells = 0;
    for (auto &grid : grids) {
        cells += grid.size() * kBenchmarks.size();
        for (SweepColumn &column : grid) {
            column.make = [&made, make = column.make]() {
                ++made;
                return make();
            };
        }
    }
    SuiteRunner runner(kBenchmarks);
    ResultStore::configureGlobal(_dir + "/store");
    RunSession cold;
    runner.runBatch(grids, cold);
    const unsigned cold_made = made.load();
    ASSERT_GT(cold_made, 0u);

    // Fully warm: every cell served, nothing simulated or stored.
    RunMetrics warm_metrics;
    RunSession warm;
    warm.metrics = &warm_metrics;
    warm.storeOnly = true;
    const std::vector<GridResult> served = runner.runBatch(grids, warm);
    EXPECT_EQ(made.load(), cold_made);
    EXPECT_EQ(warm_metrics.resultStore().hits, cells);
    EXPECT_EQ(warm_metrics.resultStore().misses, 0u);
    EXPECT_EQ(warm_metrics.resultStore().stores, 0u);
    for (std::size_t g = 0; g < grids.size(); ++g) {
        EXPECT_FALSE(served[g].partial());
        for (const SweepColumn &column : grids[g]) {
            for (const std::string &name : kBenchmarks)
                EXPECT_TRUE(served[g].has(column.label, name));
        }
    }

    // One entry gone: the store-only run throws at that miss, after
    // serving the cells planned before it but before journalling
    // them, and still reports its trace acquisition (published once
    // per runner, so from a fresh one).
    ASSERT_TRUE(fs::remove(ResultStore::global()->pathFor(
        ResultStore::cellKey(benchmarkTraceCacheKey("perl", false),
                             grids[5][2].specHash))));
    CheckpointMeta meta;
    meta.slug = "store-only";
    meta.gitSha = "test";
    meta.eventScale = 0.05;
    const std::string path = _dir + "/store-only.ckpt";
    {
        auto journal = CheckpointJournal::open(path, meta);
        ASSERT_TRUE(journal.ok());
        RunMetrics metrics;
        RunSession session;
        session.metrics = &metrics;
        session.checkpoint = journal.value().get();
        session.storeOnly = true;
        const SuiteRunner fresh(kBenchmarks);
        EXPECT_THROW(fresh.runBatch(grids, session), StoreOnlyMiss);
        EXPECT_TRUE(metrics.hasTraceSource());
    }
    EXPECT_EQ(made.load(), cold_made);
    std::ifstream journal_file(path);
    std::string line;
    std::size_t lines = 0;
    while (std::getline(journal_file, line))
        ++lines;
    EXPECT_EQ(lines, 1u) << "only the journal header";
}

TEST_F(BatchPlanTest, ReleasedPeerClaimIsSimulatedByTheDeferredWait)
{
    // No forced path: the cell must come back through a claim.
    ASSERT_EQ(std::getenv("IBP_CLAIM_WAIT"), nullptr);
    const auto grids = miniFig17();
    const std::size_t cells = 32 * kBenchmarks.size();
    SuiteRunner runner(kBenchmarks);
    RunSession clean;
    const std::vector<GridResult> reference = runner.runBatch(grids, clean);

    // A peer holds one cell, then gives it up without storing once
    // every other cell resolved - deterministically after the batch
    // deferred it, and before the deferred wait polls it.
    ResultStore::configureGlobal(_dir + "/store");
    CellClaims peer = ResultStore::global()->claims();
    ASSERT_TRUE(peer.tryClaim(ResultStore::cellKey(
        benchmarkTraceCacheKey("perl", false), grids[3][1].specHash)));
    std::mutex mutex;
    std::size_t resolved = 0;
    RunMetrics metrics;
    RunSession session;
    session.metrics = &metrics;
    session.cellClaims = true;
    session.onCellFinished = [&]() {
        std::lock_guard<std::mutex> lock(mutex);
        if (++resolved == cells - 1)
            peer.release();
    };
    const std::vector<GridResult> results = runner.runBatch(grids, session);

    EXPECT_EQ(resolved, cells);
    const ResultStoreStats stats = metrics.resultStore();
    EXPECT_EQ(stats.claims, cells);
    EXPECT_EQ(stats.claimBusy, 1u);
    EXPECT_EQ(stats.claimServed, 0u);
    EXPECT_EQ(stats.stores, cells);
    for (std::size_t g = 0; g < grids.size(); ++g) {
        EXPECT_FALSE(results[g].partial());
        for (const SweepColumn &column : grids[g]) {
            for (const std::string &name : kBenchmarks) {
                ASSERT_TRUE(results[g].has(column.label, name));
                EXPECT_EQ(results[g].get(column.label, name),
                          reference[g].get(column.label, name));
            }
        }
    }
}

TEST_F(BatchPlanTest, ClaimedBatchStaysExactUnderALowDescriptorLimit)
{
    // A full 13 x 13 hybrid grid, one row per p1: every row shares
    // its component machines, so each benchmark's 169 cells are one
    // fused chunk, and the batch holds far more cells than the
    // descriptor limit below.
    std::vector<std::vector<SweepColumn>> grids;
    for (unsigned p1 = 0; p1 <= 12; ++p1) {
        std::vector<SweepColumn> row;
        for (unsigned p2 = 0; p2 <= 12; ++p2) {
            const std::string label = std::to_string(p2);
            row.push_back(
                p1 == p2
                    ? specColumn(label, paperTwoLevel(
                                            p1, TableSpec::setAssoc(512, 4)))
                    : specColumn(label,
                                 paperHybrid(p1, p2,
                                             TableSpec::setAssoc(256, 4))));
        }
        grids.push_back(std::move(row));
    }
    const std::size_t cells = 13 * 13 * kBenchmarks.size();
    constexpr rlim_t kLimit = 256;
    ASSERT_GT(cells, kLimit);

    setenv("IBP_THREADS", "4", 1);
    SuiteRunner runner(kBenchmarks);
    RunSession clean;
    const std::vector<GridResult> reference = runner.runBatch(grids, clean);

    // A peer holds one cell for the whole run: the batch must defer
    // it (claims are real, not degraded to lockless), then simulate
    // it once the short claim wait runs out.
    ResultStore::configureGlobal(_dir + "/store");
    ResultStore *store = ResultStore::global();
    CellClaims peer = store->claims();
    ASSERT_TRUE(peer.tryClaim(ResultStore::cellKey(
        benchmarkTraceCacheKey("perl", false), grids[3][7].specHash)));
    setenv("IBP_CLAIM_WAIT", "0.2", 1);

    CheckpointMeta meta;
    meta.slug = "batch-fd-limit";
    meta.gitSha = "test";
    meta.eventScale = 0.05;
    const std::string path = _dir + "/batch.ckpt";
    RunMetrics metrics;
    std::vector<GridResult> results;
    {
        auto journal = CheckpointJournal::open(path, meta);
        ASSERT_TRUE(journal.ok());
        RunSession session;
        session.metrics = &metrics;
        session.checkpoint = journal.value().get();
        session.cellClaims = true;

        rlimit saved{};
        ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &saved), 0);
        rlimit lowered = saved;
        lowered.rlim_cur = std::min(saved.rlim_cur, kLimit);
        ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &lowered), 0);
        results = runner.runBatch(grids, session);
        ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &saved), 0);
    }
    unsetenv("IBP_CLAIM_WAIT");
    peer.release();

    const ResultStoreStats &stats = metrics.resultStore();
    EXPECT_EQ(stats.misses, cells);
    EXPECT_EQ(stats.stores, cells);
    EXPECT_EQ(stats.claims, cells - 1);
    EXPECT_EQ(stats.claimBusy, 1u);
    EXPECT_EQ(stats.claimServed, 0u);
    for (std::size_t g = 0; g < grids.size(); ++g) {
        EXPECT_FALSE(results[g].partial());
        for (const SweepColumn &column : grids[g]) {
            for (const std::string &name : kBenchmarks) {
                ASSERT_TRUE(results[g].has(column.label, name));
                EXPECT_EQ(results[g].get(column.label, name),
                          reference[g].get(column.label, name));
            }
        }
    }
    // Every cell landed: one store entry each, no stray temporaries,
    // one journal completion each.
    std::size_t entries = 0;
    for (const auto &file : fs::directory_iterator(_dir + "/store")) {
        EXPECT_NE(file.path().extension(), ".tmp");
        if (file.path().extension() == ".json")
            ++entries;
    }
    EXPECT_EQ(entries, cells);
    auto journal = CheckpointJournal::open(path, meta);
    ASSERT_TRUE(journal.ok());
    EXPECT_EQ(journal.value()->restoredCells(), cells);
}

} // namespace
} // namespace ibp
