/**
 * @file
 * Tests of the extension predictors: Target Cache [CHP97], the
 * cascaded/PPM-style predictor, the ITTAGE-style predictor, the
 * shared-table hybrid with chosen counters (section 8.1), and
 * next-branch prediction (section 8.1).
 */

#include <gtest/gtest.h>

#include "core/cascaded.hh"
#include "core/ittage.hh"
#include "core/next_branch.hh"
#include "core/shared_hybrid.hh"
#include "core/target_cache.hh"
#include "sim/simulator.hh"
#include "synth/benchmark_suite.hh"

namespace ibp {
namespace {

const Trace &
extTrace()
{
    static const Trace trace = [] {
        GeneratorOptions options;
        options.events = 20000;
        return generateTrace(benchmarkProfile("porky"), options);
    }();
    return trace;
}

TEST(TargetCache, ShiftsConditionalHistory)
{
    TargetCachePredictor predictor(TargetCacheConfig{});
    EXPECT_EQ(predictor.historyBits(), 0u);
    predictor.observeConditional(0x10, true, 0x20);
    predictor.observeConditional(0x10, false, 0x20);
    predictor.observeConditional(0x10, true, 0x20);
    EXPECT_EQ(predictor.historyBits() & 0x7, 0b101u);
}

TEST(TargetCache, LearnsConditionalCorrelatedTargets)
{
    // Target is A after a taken conditional, B after not-taken.
    TargetCacheConfig config;
    config.historyBits = 4;
    TargetCachePredictor predictor(config);
    int late_misses = 0;
    for (int i = 0; i < 400; ++i) {
        const bool taken = i % 2 == 0;
        predictor.observeConditional(0x50, taken, 0x60);
        const Addr actual = taken ? 0xA0 : 0xB0;
        if (i > 40 && !predictor.predict(0x100).correctFor(actual))
            ++late_misses;
        predictor.update(0x100, actual);
    }
    EXPECT_EQ(late_misses, 0);
}

TEST(TargetCache, ABtbCannotLearnThatStream)
{
    // Sanity companion to the test above: without conditional
    // history the alternation is 50% missable.
    TargetCacheConfig config;
    config.historyBits = 0 + 1; // effectively address-only hashing
    config.historyBits = 1;
    TargetCachePredictor predictor(config);
    int late_misses = 0;
    for (int i = 0; i < 400; ++i) {
        const Addr actual = (i % 2 == 0) ? 0xA0 : 0xB0;
        if (i > 40 && !predictor.predict(0x100).correctFor(actual))
            ++late_misses;
        predictor.update(0x100, actual);
        // No conditional branches observed at all.
    }
    EXPECT_GT(late_misses, 100);
}

TEST(TargetCache, RunsOnRealTraces)
{
    TargetCachePredictor predictor(TargetCacheConfig{});
    const SimResult result = simulate(predictor, extTrace());
    EXPECT_GT(result.branches, 0u);
    EXPECT_LE(result.missPercent(), 100.0);
}

TEST(Cascaded, ClassicConfigSplitsTheBudget)
{
    CascadedPredictor predictor(CascadedConfig::classic(1024));
    EXPECT_EQ(predictor.tableCapacity(), 1024u);
}

TEST(Cascaded, StagesMustHaveIncreasingPaths)
{
    CascadedConfig config;
    config.stages = {CascadeStage{3, TableSpec::setAssoc(64, 4)},
                     CascadeStage{1, TableSpec::setAssoc(64, 4)}};
    EXPECT_DEATH(CascadedPredictor{config}, "increasing");
}

TEST(Cascaded, LongestHittingStageProvides)
{
    CascadedPredictor predictor(CascadedConfig::classic(1024));
    // Period-3 distinct cycle: the long stage should take over.
    const Addr cycle[] = {0xA0, 0xB0, 0xC0};
    int late_misses = 0;
    for (int i = 0; i < 600; ++i) {
        const Addr actual = cycle[i % 3];
        const bool hit = predictor.predict(0x100).correctFor(actual);
        if (i >= 300)
            late_misses += hit ? 0 : 1;
        predictor.update(0x100, actual);
    }
    EXPECT_LE(late_misses, 2);
    EXPECT_GE(predictor.lastStage(), 1);
}

TEST(Cascaded, FilterKeepsEasyBranchesOutOfLongStages)
{
    CascadedConfig filtered = CascadedConfig::classic(1024);
    CascadedConfig unfiltered = CascadedConfig::classic(1024);
    unfiltered.filterAllocation = false;
    CascadedPredictor with_filter(filtered);
    CascadedPredictor without_filter(unfiltered);
    // A monomorphic branch: stage 0 handles it after warm-up.
    for (int i = 0; i < 50; ++i) {
        with_filter.predict(0x100);
        with_filter.update(0x100, 0xA0);
        without_filter.predict(0x100);
        without_filter.update(0x100, 0xA0);
    }
    // The filtered cascade allocated (almost) nothing beyond the
    // first stage; the unfiltered one spread into all stages.
    EXPECT_LT(with_filter.tableOccupancy(),
              without_filter.tableOccupancy());
}

TEST(Cascaded, RunsOnRealTracesAndBeatsItsFirstStage)
{
    CascadedPredictor cascade(CascadedConfig::classic(2048));
    const double cascade_rate =
        simulate(cascade, extTrace()).missPercent();
    // Its own p=0 first stage alone, at the full budget.
    CascadedConfig btb_only;
    btb_only.stages = {CascadeStage{0, TableSpec::setAssoc(2048, 4)}};
    CascadedPredictor first_stage(btb_only);
    const double first_rate =
        simulate(first_stage, extTrace()).missPercent();
    EXPECT_LT(cascade_rate, first_rate);
}

TEST(Ittage, ValidatesTableShapes)
{
    IttageConfig config;
    config.baseEntries = 100;
    EXPECT_DEATH(IttagePredictor{config}, "powers of two");
}

TEST(Ittage, LearnsPeriodicStreams)
{
    IttagePredictor predictor(IttageConfig{});
    const Addr cycle[] = {0xA0, 0xB0, 0xA0, 0xC0};
    int late_misses = 0;
    for (int i = 0; i < 800; ++i) {
        const Addr actual = cycle[i % 4];
        const bool hit = predictor.predict(0x100).correctFor(actual);
        if (i >= 400)
            late_misses += hit ? 0 : 1;
        predictor.update(0x100, actual);
    }
    EXPECT_LT(late_misses, 20);
}

TEST(Ittage, BeatsPlainBtbOnRealTraces)
{
    IttagePredictor ittage(IttageConfig{});
    const double ittage_rate =
        simulate(ittage, extTrace()).missPercent();
    IttageConfig base_only;
    base_only.baseEntries = 2048;
    base_only.componentEntries = 2;
    base_only.historyLengths = {1};
    IttagePredictor degenerate(base_only);
    const double base_rate =
        simulate(degenerate, extTrace()).missPercent();
    EXPECT_LT(ittage_rate, base_rate);
}

TEST(Ittage, CapacityAccounting)
{
    IttageConfig config;
    config.baseEntries = 256;
    config.componentEntries = 128;
    config.historyLengths = {4, 8};
    IttagePredictor predictor(config);
    EXPECT_EQ(predictor.tableCapacity(), 256u + 2 * 128u);
    EXPECT_EQ(predictor.tableOccupancy(), 0u);
    predictor.update(0x100, 0xA0);
    EXPECT_GE(predictor.tableOccupancy(), 1u);
}

TEST(SharedHybrid, ValidatesConfig)
{
    SharedHybridConfig config;
    config.pathLengths = {3};
    EXPECT_DEATH(SharedHybridPredictor{config}, ">= 2 components");
}

TEST(SharedHybrid, LearnsLikeAHybrid)
{
    SharedHybridConfig config;
    config.pathLengths = {3, 1};
    config.entries = 1024;
    SharedHybridPredictor predictor(config);
    const Addr cycle[] = {0xA0, 0xB0, 0xA0, 0xC0};
    int late_misses = 0;
    for (int i = 0; i < 600; ++i) {
        const Addr actual = cycle[i % 4];
        const bool hit = predictor.predict(0x100).correctFor(actual);
        if (i >= 300)
            late_misses += hit ? 0 : 1;
        predictor.update(0x100, actual);
    }
    EXPECT_LE(late_misses, 2);
}

TEST(SharedHybrid, OccupancyWithinCapacity)
{
    SharedHybridConfig config;
    config.pathLengths = {3, 1};
    config.entries = 256;
    SharedHybridPredictor predictor(config);
    const SimResult result = simulate(predictor, extTrace());
    EXPECT_LE(result.tableOccupancy, result.tableCapacity);
    EXPECT_GT(result.tableOccupancy, 100u);
    EXPECT_LE(result.missPercent(), 100.0);
}

TEST(SharedHybrid, ResetForgets)
{
    SharedHybridConfig config;
    SharedHybridPredictor predictor(config);
    predictor.update(0x100, 0xA0);
    predictor.reset();
    EXPECT_FALSE(predictor.predict(0x100).valid);
    EXPECT_EQ(predictor.tableOccupancy(), 0u);
}

TEST(NextBranch, PredictsTargetAndSuccessor)
{
    NextBranchPredictor predictor(2);
    // Deterministic little program: X -> Y -> X -> Y ...
    int late_joint_hits = 0;
    Addr pcs[] = {0x100, 0x200};
    Addr targets[] = {0xA0, 0xB0};
    for (int i = 0; i < 200; ++i) {
        const Addr pc = pcs[i % 2];
        const Addr target = targets[i % 2];
        const Addr next_pc = pcs[(i + 1) % 2];
        const NextBranchPrediction guess = predictor.predict(pc);
        if (i > 20 && guess.valid && guess.target == target &&
            guess.nextPc == next_pc) {
            ++late_joint_hits;
        }
        predictor.update(pc, target, next_pc);
    }
    EXPECT_EQ(late_joint_hits, 179); // every branch after warm-up
}

TEST(NextBranch, HysteresisKeepsStablePairs)
{
    NextBranchPredictor predictor(0);
    predictor.update(0x100, 0xA0, 0x200);
    predictor.update(0x100, 0xB0, 0x300); // single deviation
    const NextBranchPrediction guess = predictor.predict(0x100);
    ASSERT_TRUE(guess.valid);
    EXPECT_EQ(guess.target, 0xA0u);
    EXPECT_EQ(guess.nextPc, 0x200u);
}

TEST(NextBranch, JointAccuracyTracksTargetAccuracyOnRealTraces)
{
    NextBranchPredictor predictor(3);
    const Trace &trace = extTrace();
    double target_hits = 0, joint_hits = 0, total = 0;
    for (std::size_t i = 0; i + 1 < trace.size(); ++i) {
        const BranchRecord record = trace[i];
        const BranchRecord next = trace[i + 1];
        const NextBranchPrediction guess = predictor.predict(record.pc);
        total += 1;
        if (guess.valid && guess.target == record.target) {
            target_hits += 1;
            if (guess.nextPc == next.pc)
                joint_hits += 1;
        }
        predictor.update(record.pc, record.target, next.pc);
    }
    EXPECT_GT(target_hits / total, 0.5);
    EXPECT_GT(joint_hits / std::max(1.0, target_hits), 0.8);
}

} // namespace
} // namespace ibp
