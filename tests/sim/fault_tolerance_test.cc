/**
 * @file
 * Fault-tolerance tests of the suite runner: cell isolation, retry
 * of injected transient faults, partial grids and their degraded
 * averages/tables, trace-generation failures, checkpoint/resume
 * reproduction, poisoning of a cell that killed every prior
 * incarnation, and watchdog cancellation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <thread>

#include "core/btb.hh"
#include "robust/fault_injection.hh"
#include "sim/suite_runner.hh"

namespace ibp {
namespace {

class FaultToleranceTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        setenv("IBP_EVENTS", "0.05", 1);
        FaultInjector::configureGlobal("");
    }
    void
    TearDown() override
    {
        FaultInjector::configureGlobal("");
        unsetenv("IBP_EVENTS");
    }
};

SweepColumn
btbColumn(const std::string &label)
{
    return {label, []() {
                return std::make_unique<BtbPredictor>(
                    TableSpec::unconstrained(), true);
            }};
}

RunSession
fastSession(RunMetrics *metrics = nullptr)
{
    RunSession session;
    session.metrics = metrics;
    session.retry.maxAttempts = 8;
    session.retry.initialBackoffSeconds = 0.0;
    return session;
}

TEST_F(FaultToleranceTest, InjectedTransientFaultsAreRetriedAway)
{
    SuiteRunner runner({"idl", "self"});
    const std::vector<SweepColumn> columns = {btbColumn("btb")};

    const GridResult clean = runner.run(columns);

    // Heavy transient faulting: with 8 attempts and per-attempt
    // re-rolls every cell still completes (decisions are a pure
    // hash, so this is deterministic, not flaky).
    FaultInjector::configureGlobal("sim:0.5,seed=11");
    RunMetrics metrics;
    RunSession session = fastSession(&metrics);
    const GridResult faulted = runner.run(columns, session);
    FaultInjector::configureGlobal("");

    EXPECT_FALSE(faulted.partial());
    for (const auto &name : runner.benchmarks()) {
        ASSERT_TRUE(faulted.has("btb", name));
        // Retries must not perturb the simulation itself.
        EXPECT_EQ(faulted.get("btb", name), clean.get("btb", name));
    }
    EXPECT_EQ(metrics.failureCount(), 0u);
    EXPECT_EQ(metrics.cellCount(), 2u);
}

TEST_F(FaultToleranceTest, PermanentFaultsFailOnlyTheirCells)
{
    SuiteRunner runner({"idl", "self"});
    // A predictor factory that always fails: every cell of this
    // column fails permanently while the healthy column completes.
    const std::vector<SweepColumn> columns = {
        btbColumn("good"),
        {"bad",
         []() -> std::unique_ptr<IndirectPredictor> {
             throw RunException(
                 RunError::permanent("factory exploded"));
         }},
    };
    RunMetrics metrics;
    RunSession session = fastSession(&metrics);
    const GridResult grid = runner.run(columns, session);

    EXPECT_TRUE(grid.partial());
    EXPECT_EQ(grid.failures().size(), 2u);
    for (const auto &name : runner.benchmarks()) {
        EXPECT_TRUE(grid.has("good", name));
        EXPECT_FALSE(grid.has("bad", name));
    }
    for (const auto &failure : grid.failures()) {
        EXPECT_EQ(failure.column, "bad");
        EXPECT_EQ(failure.kind, ErrorKind::Permanent);
        EXPECT_NE(failure.error.find("factory exploded"),
                  std::string::npos);
    }
    EXPECT_EQ(metrics.failureCount(), 2u);
    EXPECT_EQ(metrics.cellCount(), 2u); // only the good column

    // Averages degrade: present members only, NaN when none left.
    EXPECT_EQ(grid.presentCount("bad", {"idl", "self"}), 0u);
    EXPECT_TRUE(std::isnan(grid.average("bad", {"idl", "self"})));
    EXPECT_EQ(grid.presentCount("good", {"idl", "self"}), 2u);
    EXPECT_FALSE(std::isnan(grid.average("good", {"idl", "self"})));

    // Rendering keeps the failed cells blank instead of crashing.
    const ResultTable table =
        runner.benchmarkTable("partial", grid, columns);
    EXPECT_TRUE(table.get("idl", "good").has_value());
    EXPECT_FALSE(table.get("idl", "bad").has_value());
}

TEST_F(FaultToleranceTest, ExhaustedTransientFaultRecordsAttempts)
{
    SuiteRunner runner({"idl"});
    FaultInjector::configureGlobal("sim:1.0"); // never clears
    RunMetrics metrics;
    RunSession session = fastSession(&metrics);
    session.retry.maxAttempts = 3;
    const GridResult grid = runner.run({btbColumn("btb")}, session);
    FaultInjector::configureGlobal("");

    ASSERT_EQ(grid.failures().size(), 1u);
    EXPECT_EQ(grid.failures()[0].attempts, 3u);
    EXPECT_EQ(grid.failures()[0].kind, ErrorKind::Transient);
    ASSERT_EQ(metrics.failureCount(), 1u);
    EXPECT_EQ(metrics.failures()[0].attempts, 3u);
}

TEST_F(FaultToleranceTest, TraceGenerationFailureDegradesSuite)
{
    FaultInjector::configureGlobal("trace:1.0:permanent");
    SuiteRunner runner({"idl", "self"});
    FaultInjector::configureGlobal("");

    // The names survive but no traces do.
    EXPECT_EQ(runner.benchmarks().size(), 2u);
    EXPECT_EQ(runner.failedBenchmarks().size(), 2u);

    RunMetrics metrics;
    RunSession session = fastSession(&metrics);
    const GridResult grid = runner.run({btbColumn("btb")}, session);
    EXPECT_TRUE(grid.partial());
    EXPECT_EQ(grid.failures().size(), 2u);
    EXPECT_EQ(metrics.failureCount(), 2u);
    EXPECT_EQ(metrics.cellCount(), 0u);
}

TEST_F(FaultToleranceTest, CheckpointResumeReproducesBitForBit)
{
    const std::string path =
        testing::TempDir() + "/ibp_ft_resume.jsonl";
    std::remove(path.c_str());
    CheckpointMeta meta;
    meta.slug = "test";
    meta.gitSha = "sha";
    meta.eventScale = 0.05;
    meta.quick = false;

    SuiteRunner runner({"idl", "self"});
    const std::vector<SweepColumn> columns = {btbColumn("a"),
                                              btbColumn("b")};

    GridResult first;
    {
        auto journal = CheckpointJournal::open(path, meta);
        ASSERT_TRUE(journal.ok());
        RunMetrics metrics;
        RunSession session = fastSession(&metrics);
        session.checkpoint = journal.value().get();
        // Two grids with identical labels, like fig11's row sweeps.
        first = runner.run(columns, session);
        runner.run(columns, session);
        EXPECT_EQ(metrics.cellCount(), 8u);
    }

    // "Crash" and resume: every cell must come back from the journal
    // (zero simulations) with bit-identical rates.
    {
        auto journal = CheckpointJournal::open(path, meta);
        ASSERT_TRUE(journal.ok());
        EXPECT_EQ(journal.value()->restoredCells(), 8u);
        RunMetrics metrics;
        RunSession session = fastSession(&metrics);
        session.checkpoint = journal.value().get();
        const GridResult resumed = runner.run(columns, session);
        EXPECT_EQ(metrics.cellCount(), 0u);
        for (const auto &column : columns) {
            for (const auto &name : runner.benchmarks()) {
                ASSERT_TRUE(resumed.has(column.label, name));
                EXPECT_EQ(resumed.get(column.label, name),
                          first.get(column.label, name));
            }
        }
    }
}

TEST_F(FaultToleranceTest, PartialCheckpointOnlySkipsJournalledCells)
{
    const std::string path =
        testing::TempDir() + "/ibp_ft_partial.jsonl";
    std::remove(path.c_str());
    CheckpointMeta meta;
    meta.slug = "test";
    meta.gitSha = "sha";
    meta.eventScale = 0.05;
    meta.quick = false;

    SuiteRunner runner({"idl", "self"});
    const std::vector<SweepColumn> columns = {btbColumn("btb")};
    const GridResult reference = runner.run(columns);

    // Pre-seed the journal with one cell carrying a sentinel value:
    // resume must trust the journal for that cell and simulate the
    // other.
    {
        auto journal = CheckpointJournal::open(path, meta);
        ASSERT_TRUE(journal.ok());
        ASSERT_TRUE(
            journal.value()->append({0, "btb", "idl", 99.5}).ok());
    }
    auto journal = CheckpointJournal::open(path, meta);
    ASSERT_TRUE(journal.ok());
    RunMetrics metrics;
    RunSession session = fastSession(&metrics);
    session.checkpoint = journal.value().get();
    const GridResult grid = runner.run(columns, session);
    EXPECT_EQ(metrics.cellCount(), 1u); // only "self" simulated
    EXPECT_EQ(grid.get("btb", "idl"), 99.5);
    EXPECT_EQ(grid.get("btb", "self"),
              reference.get("btb", "self"));
}

TEST_F(FaultToleranceTest, PoisonedCellFailsWithoutSimulating)
{
    const std::string path =
        testing::TempDir() + "/ibp_ft_poison.jsonl";
    std::remove(path.c_str());
    CheckpointMeta meta;
    meta.slug = "test";
    meta.gitSha = "sha";
    meta.eventScale = 0.05;
    meta.quick = false;
    constexpr unsigned kThreshold = 3;

    // kThreshold dead incarnations each started the cell and never
    // completed it.
    {
        auto journal = CheckpointJournal::open(path, meta);
        ASSERT_TRUE(journal.ok());
        for (unsigned i = 0; i < kThreshold; ++i) {
            ASSERT_TRUE(
                journal.value()->appendStart({0, "poisoned", "idl"}).ok());
        }
    }

    SuiteRunner runner({"idl"});
    std::atomic<unsigned> made{0};
    const std::vector<SweepColumn> columns = {
        btbColumn("a"),
        btbColumn("b"),
        {"poisoned",
         [&made]() {
             ++made;
             return std::make_unique<BtbPredictor>(
                 TableSpec::unconstrained(), true);
         }},
    };
    auto journal = CheckpointJournal::open(path, meta);
    ASSERT_TRUE(journal.ok());
    RunMetrics metrics;
    RunSession session = fastSession(&metrics);
    session.retry.poisonThreshold = kThreshold;
    session.checkpoint = journal.value().get();
    const GridResult grid = runner.run(columns, session);

    EXPECT_EQ(made.load(), 0u);
    ASSERT_EQ(grid.failures().size(), 1u);
    EXPECT_EQ(grid.failures()[0].column, "poisoned");
    EXPECT_EQ(grid.failures()[0].benchmark, "idl");
    EXPECT_EQ(grid.failures()[0].kind, ErrorKind::Timeout);
    EXPECT_EQ(grid.failures()[0].attempts, kThreshold);
    EXPECT_FALSE(grid.has("poisoned", "idl"));
    EXPECT_TRUE(grid.has("a", "idl"));
    EXPECT_TRUE(grid.has("b", "idl"));
    EXPECT_EQ(metrics.cellCount(), 2u);
    ASSERT_EQ(metrics.failureCount(), 1u);
    EXPECT_EQ(metrics.failures()[0].kind, "timeout");
    EXPECT_EQ(metrics.failures()[0].attempts, kThreshold);
}

/** Enough records to comfortably cross the cancellation poll period. */
Trace
longTrace(const std::string &name)
{
    Trace trace(name);
    for (unsigned i = 0; i < 40000; ++i) {
        trace.append({0x1000 + (i % 64) * 4, 0x2000 + (i % 8) * 16,
                      BranchKind::IndirectCall, true});
    }
    return trace;
}

TEST_F(FaultToleranceTest, SimulateHonoursCancellationToken)
{
    const Trace trace = longTrace("cancel-me");
    BtbPredictor predictor(TableSpec::unconstrained(), true);
    CancelToken token;
    token.armed = 1;
    token.requested.store(1);
    SimOptions options;
    options.cancel = &token;
    try {
        simulate(predictor, trace, options);
        FAIL() << "cancelled simulation completed";
    } catch (const RunException &exception) {
        EXPECT_EQ(exception.error().kind, ErrorKind::Timeout);
        EXPECT_NE(exception.error().message.find("watchdog"),
                  std::string::npos);
    }
}

TEST_F(FaultToleranceTest, StaleCancelRequestDoesNotKillNextAttempt)
{
    // Regression test for the stale-cancel race: the watchdog decides
    // to cancel attempt N, but its request lands after the worker has
    // already finished N and armed attempt N+1. With the old plain
    // cancel flag that request killed the healthy new attempt; the
    // epoch-tagged token must ignore it because it names a dead
    // epoch.
    const Trace trace = longTrace("stale-cancel");
    BtbPredictor predictor(TableSpec::unconstrained(), true);
    CancelToken token;
    token.armed = 2;           // attempt N+1 is running...
    token.requested.store(1);  // ...the request targets attempt N.
    EXPECT_FALSE(token.cancelled());
    SimOptions options;
    options.cancel = &token;
    EXPECT_NO_THROW(simulate(predictor, trace, options));

    // A request that names the running epoch still cancels it.
    token.requested.store(2);
    EXPECT_TRUE(token.cancelled());
    EXPECT_THROW(simulate(predictor, trace, options), RunException);

    // An idle token (nothing armed) never reports cancelled, no
    // matter what stale request it carries.
    token.armed = 0;
    EXPECT_FALSE(token.cancelled());
}

TEST_F(FaultToleranceTest, WatchdogCancelsOverDeadlineCells)
{
    // A predictor slow enough that the cell blows its deadline long
    // before the trace ends; the watchdog must cancel it and record
    // a timeout failure rather than hang the sweep.
    class SlowPredictor : public IndirectPredictor
    {
      public:
        Prediction
        predict(Addr) override
        {
            std::this_thread::sleep_for(
                std::chrono::microseconds(200));
            return {};
        }
        void update(Addr, Addr) override {}
        void reset() override {}
        std::string name() const override { return "slow"; }
        std::uint64_t tableCapacity() const override { return 0; }
        std::uint64_t tableOccupancy() const override { return 0; }
    };

    SuiteRunner runner({"idl"});
    if (runner.trace("idl").countPredictedIndirect() < 2000)
        GTEST_SKIP() << "trace too small to outlast the watchdog";

    RunMetrics metrics;
    RunSession session = fastSession(&metrics);
    session.retry.maxAttempts = 1;
    session.retry.cellDeadlineSeconds = 0.05;
    const GridResult grid = runner.run(
        {{"slow", []() { return std::make_unique<SlowPredictor>(); }}},
        session);
    ASSERT_EQ(grid.failures().size(), 1u);
    EXPECT_EQ(grid.failures()[0].kind, ErrorKind::Timeout);
}

TEST_F(FaultToleranceTest, LegacyRunOverloadStillWorks)
{
    SuiteRunner runner({"idl"});
    RunMetrics metrics;
    const GridResult grid =
        runner.run({btbColumn("btb")}, &metrics);
    EXPECT_TRUE(grid.has("btb", "idl"));
    EXPECT_FALSE(grid.partial());
    EXPECT_EQ(metrics.cellCount(), 1u);
}

} // namespace
} // namespace ibp
