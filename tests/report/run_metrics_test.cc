/**
 * @file
 * Tests of the RunMetrics telemetry collector: aggregation
 * arithmetic, concurrent recording from worker threads, and the
 * JSON round trip.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "report/run_metrics.hh"

namespace ibp {
namespace {

CellMetrics
makeCell(const std::string &column, const std::string &benchmark,
         std::uint64_t branches, double seconds,
         std::uint64_t occupancy)
{
    CellMetrics cell;
    cell.column = column;
    cell.benchmark = benchmark;
    cell.branches = branches;
    cell.seconds = seconds;
    cell.tableOccupancy = occupancy;
    cell.tableCapacity = occupancy * 2;
    return cell;
}

TEST(RunMetricsTest, AggregatesOverCells)
{
    RunMetrics metrics;
    metrics.recordCell(makeCell("a", "idl", 1000, 0.5, 64));
    metrics.recordCell(makeCell("a", "gcc", 3000, 1.5, 256));
    metrics.recordCell(makeCell("b", "idl", 500, 0.25, 32));
    metrics.recordRunWindow(1.0);
    metrics.recordThreads(4);

    EXPECT_EQ(metrics.cellCount(), 3u);
    EXPECT_EQ(metrics.totalBranches(), 4500u);
    EXPECT_DOUBLE_EQ(metrics.cellSeconds(), 2.25);
    EXPECT_DOUBLE_EQ(metrics.runSeconds(), 1.0);
    EXPECT_DOUBLE_EQ(metrics.branchesPerSecond(), 4500.0);
    EXPECT_EQ(metrics.peakTableOccupancy(), 256u);
    EXPECT_EQ(metrics.threads(), 4u);
}

TEST(RunMetricsTest, ThroughputCountsOnlySimulatedCells)
{
    // Stored cells carry the counters of the run that computed them:
    // they count in total_branches, not in this run's throughput, and
    // a run that simulated nothing reports 0.
    RunMetrics metrics;
    metrics.recordCell(makeCell("a", "idl", 1000, 0.5, 64));
    const CellMetrics stored = makeCell("a", "gcc", 3000, 1.5, 256);
    metrics.recordStoredCell(stored);
    metrics.recordRunWindow(0.5);
    EXPECT_EQ(metrics.totalBranches(), 4000u);
    EXPECT_EQ(metrics.simulatedBranches(), 1000u);
    EXPECT_DOUBLE_EQ(metrics.branchesPerSecond(), 2000.0);

    const RunMetrics reloaded = RunMetrics::fromJson(metrics.toJson());
    EXPECT_EQ(reloaded.simulatedBranches(), 1000u);
    EXPECT_DOUBLE_EQ(reloaded.branchesPerSecond(), 2000.0);

    RunMetrics warm;
    warm.recordStoredCell(stored);
    warm.recordRunWindow(1e-5);
    EXPECT_DOUBLE_EQ(warm.branchesPerSecond(), 0.0);
}

TEST(RunMetricsTest, EmptyMetricsAreZero)
{
    const RunMetrics metrics;
    EXPECT_EQ(metrics.totalBranches(), 0u);
    EXPECT_DOUBLE_EQ(metrics.branchesPerSecond(), 0.0);
    EXPECT_EQ(metrics.peakTableOccupancy(), 0u);
}

TEST(RunMetricsTest, ThreadCountKeepsMaximum)
{
    RunMetrics metrics;
    metrics.recordThreads(2);
    metrics.recordThreads(8);
    metrics.recordThreads(4);
    EXPECT_EQ(metrics.threads(), 8u);
}

TEST(RunMetricsTest, ConcurrentRecordingLosesNothing)
{
    constexpr unsigned kThreads = 8;
    constexpr unsigned kCellsPerThread = 250;

    RunMetrics metrics;
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([&metrics, t]() {
            for (unsigned i = 0; i < kCellsPerThread; ++i) {
                metrics.recordCell(makeCell(
                    "col" + std::to_string(t),
                    "bench" + std::to_string(i), 10, 0.001, t + 1));
                metrics.recordRunWindow(0.5);
            }
        });
    }
    for (auto &worker : workers)
        worker.join();

    EXPECT_EQ(metrics.cellCount(), kThreads * kCellsPerThread);
    EXPECT_EQ(metrics.totalBranches(),
              10u * kThreads * kCellsPerThread);
    EXPECT_NEAR(metrics.runSeconds(),
                0.5 * kThreads * kCellsPerThread, 1e-6);
    EXPECT_EQ(metrics.peakTableOccupancy(), kThreads);
}

TEST(RunMetricsTest, JsonRoundTripPreservesEverything)
{
    RunMetrics metrics;
    metrics.recordCell(makeCell("BTB", "idl", 123456, 0.75, 1844));
    metrics.recordCell(makeCell("BTB-2bc", "gcc", 7890, 0.125, 99));
    metrics.recordRunWindow(0.875);
    metrics.recordThreads(3);

    const RunMetrics parsed = RunMetrics::fromJson(
        Json::parse(metrics.toJson().dump(2)));

    EXPECT_EQ(parsed.totalBranches(), metrics.totalBranches());
    EXPECT_DOUBLE_EQ(parsed.runSeconds(), metrics.runSeconds());
    EXPECT_DOUBLE_EQ(parsed.branchesPerSecond(),
                     metrics.branchesPerSecond());
    EXPECT_EQ(parsed.threads(), metrics.threads());
    EXPECT_EQ(parsed.peakTableOccupancy(),
              metrics.peakTableOccupancy());

    const auto original = metrics.cells();
    const auto cells = parsed.cells();
    ASSERT_EQ(cells.size(), original.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(cells[i].column, original[i].column);
        EXPECT_EQ(cells[i].benchmark, original[i].benchmark);
        EXPECT_EQ(cells[i].branches, original[i].branches);
        EXPECT_DOUBLE_EQ(cells[i].seconds, original[i].seconds);
        EXPECT_EQ(cells[i].tableOccupancy,
                  original[i].tableOccupancy);
        EXPECT_EQ(cells[i].tableCapacity,
                  original[i].tableCapacity);
    }
}

TEST(RunMetricsTest, SimdBlockRoundTripsAndStaysOptional)
{
    RunMetrics metrics;
    metrics.recordCell(makeCell("BTB", "idl", 123456, 0.75, 1844));
    // Artifacts from before the SIMD engine carry no simd block and
    // must keep parsing that way.
    EXPECT_FALSE(metrics.hasSimd());
    const RunMetrics legacy = RunMetrics::fromJson(
        Json::parse(metrics.toJson().dump(2)));
    EXPECT_FALSE(legacy.hasSimd());

    SimdStats stats;
    stats.dispatchLevel = "sse2";
    stats.fallbackReason = "cpu-lacks-avx2";
    stats.columnarBlocks = 1687;
    stats.transposedBlocks = 3;
    stats.skippedRecords = 41;
    stats.laneColumns = 637;
    stats.genericColumns = 7;
    stats.laneMachines = 728;
    stats.lruStacks = 7;
    stats.stackedMembers = 70;
    stats.setStacks = 9;
    stats.setStackedMembers = 18;
    metrics.recordSimd(stats);
    // A second record accumulates counters but keeps the dispatch
    // strings as a process-wide fact.
    metrics.recordSimd(stats);
    ASSERT_TRUE(metrics.hasSimd());

    const RunMetrics parsed = RunMetrics::fromJson(
        Json::parse(metrics.toJson().dump(2)));
    ASSERT_TRUE(parsed.hasSimd());
    const SimdStats simd = parsed.simd();
    EXPECT_EQ(simd.dispatchLevel, "sse2");
    EXPECT_EQ(simd.fallbackReason, "cpu-lacks-avx2");
    EXPECT_EQ(simd.columnarBlocks, 2u * 1687);
    EXPECT_EQ(simd.transposedBlocks, 2u * 3);
    EXPECT_EQ(simd.skippedRecords, 2u * 41);
    EXPECT_EQ(simd.laneColumns, 2u * 637);
    EXPECT_EQ(simd.genericColumns, 2u * 7);
    EXPECT_EQ(simd.laneMachines, 2u * 728);
    EXPECT_EQ(simd.lruStacks, 2u * 7);
    EXPECT_EQ(simd.stackedMembers, 2u * 70);
    EXPECT_EQ(simd.setStacks, 2u * 9);
    EXPECT_EQ(simd.setStackedMembers, 2u * 18);
}

} // namespace
} // namespace ibp
