/**
 * @file
 * Tests of the grid sharder and the cell-claim layer (src/serve,
 * sim/result_store): a sharded --lanes=4 run is bit-identical to
 * --lanes=1 and to the in-process runner, a SIGKILLed lane mid-shard
 * re-queues only that shard's unfinished cells (finished cells are
 * never re-simulated - counted via a factory-side simulation log),
 * and two concurrent overlapping in-process requests simulate their
 * intersection exactly once (asserted through the result-store claim
 * counters).
 *
 * Lane processes are fork()ed children: anything the experiment
 * bodies must observe from the test (gates, the simulation log path)
 * goes through globals set BEFORE the server forks its pool, and
 * through the filesystem afterwards. Fork-based tests are skipped
 * under TSan; the overlap test is thread-only and runs everywhere.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "core/table_spec.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/supervisor.hh"
#include "sim/experiment.hh"
#include "sim/result_store.hh"
#include "sim/spec_columns.hh"
#include "sim/suite_runner.hh"
#include "synth/benchmark_suite.hh"
#include "trace/trace_cache.hh"

#if defined(__SANITIZE_THREAD__)
#define IBP_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define IBP_TSAN 1
#endif
#endif
#ifndef IBP_TSAN
#define IBP_TSAN 0
#endif

namespace ibp {
namespace {

/** Gate file the chaos body polls; set before the server forks. */
std::string g_shard_gate;

/** Append-one-byte log written by the counted column's factory on
 *  every SIMULATION (store hits and journal restores never construct
 *  a predictor, so the file size counts exactly the simulated cells
 *  across the test process and every lane). Empty = disabled. */
std::string g_shard_sim_log;

void
logSimulatedCell()
{
    if (g_shard_sim_log.empty())
        return;
    const int fd = ::open(g_shard_sim_log.c_str(),
                          O_WRONLY | O_APPEND | O_CREAT, 0644);
    if (fd < 0)
        return;
    [[maybe_unused]] const ssize_t n = ::write(fd, "x", 1);
    ::close(fd);
}

std::size_t
simulatedCellCount()
{
    std::error_code ec;
    const auto size =
        std::filesystem::file_size(g_shard_sim_log, ec);
    return ec ? 0 : static_cast<std::size_t>(size);
}

/** Park until the gate file exists or the run is drained. */
void
waitForGateFile(const std::string &path, RunSession &session)
{
    while (!std::filesystem::exists(path)) {
        if (session.abort != nullptr && session.abort->load())
            return;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
}

/** One keyed column whose factory logs every construction. The
 *  wrapper builds exactly what btbColumn's hash describes, so the
 *  store-key honesty contract holds. @p entries varies the config:
 *  two grids over the SAME config would share store keys and the
 *  second would be all hits. */
std::vector<SweepColumn>
countedShardColumns(unsigned entries)
{
    SweepColumn keyed =
        btbColumn("btb", TableSpec::setAssoc(entries, 4), true);
    const PredictorFactory inner = keyed.make;
    keyed.make = [inner] {
        logSimulatedCell();
        return inner();
    };
    return {keyed};
}

/** The columns of twoGridShardExperiment(), one per grid. */
std::vector<std::vector<SweepColumn>>
twoGridColumns()
{
    return {{btbColumn("btb256", TableSpec::setAssoc(256, 4), true)},
            {btbColumn("btb512", TableSpec::setAssoc(512, 4), true)}};
}

/** A pure store-keyed sweep: the shardable differential target. */
const ExperimentDef &
shardDiffExperiment()
{
    static const ExperimentDef &def = registerExperiment(
        {"TEST_shard_diff", "shard test: differential",
         [](ExperimentContext &context) {
             SuiteRunner runner({"idl", "gcc", "perl"});
             const std::vector<SweepColumn> columns = {
                 btbColumn("btb256", TableSpec::setAssoc(256, 4),
                           true),
                 btbColumn("btb512", TableSpec::setAssoc(512, 4),
                           true),
             };
             const GridResult grid =
                 runner.run(columns, context.session());
             context.emit(runner.benchmarkTable("shard diff grid",
                                                grid, columns));
             context.note("shard differential note");
         },
         /*shardable=*/true});
    return def;
}

/** Counted keyed grid, file gate, second counted grid: every shard
 *  parks at the gate after persisting its first-grid partition, so
 *  the test can SIGKILL a lane at a known cell-quiescent point. */
const ExperimentDef &
gatedShardExperiment()
{
    static const ExperimentDef &def = registerExperiment(
        {"TEST_shard_chaos", "shard test: gated mid-shard kill",
         [](ExperimentContext &context) {
             SuiteRunner runner({"idl", "gcc"});
             const auto before = countedShardColumns(256);
             const auto after = countedShardColumns(512);
             const GridResult first =
                 runner.run(before, context.session());
             waitForGateFile(g_shard_gate, context.session());
             const GridResult second =
                 runner.run(after, context.session());
             context.emit(runner.benchmarkTable("shard gate grid 1",
                                                first, before));
             context.emit(runner.benchmarkTable("shard gate grid 2",
                                                second, after));
         },
         /*shardable=*/true});
    return def;
}

/** Two store-keyed grids run one after the other: a store-only pass
 *  serves all of grid 1, a whole batch, before it reaches grid 2. */
const ExperimentDef &
twoGridShardExperiment()
{
    static const ExperimentDef &def = registerExperiment(
        {"TEST_shard_two_grids", "shard test: two grids",
         [](ExperimentContext &context) {
             SuiteRunner runner({"idl", "gcc", "perl"});
             const auto first = twoGridColumns().front();
             const auto second = twoGridColumns().back();
             const GridResult grid_one =
                 runner.run(first, context.session());
             const GridResult grid_two =
                 runner.run(second, context.session());
             context.emit(runner.benchmarkTable("two grids 1",
                                                grid_one, first));
             context.emit(runner.benchmarkTable("two grids 2",
                                                grid_two, second));
         },
         /*shardable=*/true});
    return def;
}

/** An experiment with no cells: a lane job that costs next to
 *  nothing, so dispatch overhead is all a run of it measures. */
const ExperimentDef &
trivialExperiment()
{
    static const ExperimentDef &def = registerExperiment(
        {"TEST_shard_trivial", "shard test: trivial job",
         [](ExperimentContext &context) { context.note("trivial"); }});
    return def;
}

class ShardServeTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setenv("IBP_EVENTS", "0.05", 1);
        char dir_template[] = "/tmp/ibpshardXXXXXX";
        ASSERT_NE(::mkdtemp(dir_template), nullptr);
        _dir = dir_template;
        _socket = _dir + "/s.sock";
        _state = _dir + "/state";
        g_shard_gate = _dir + "/gate";
        g_shard_sim_log.clear();
    }

    void
    TearDown() override
    {
        unsetenv("IBP_EVENTS");
        unsetenv("IBP_CLAIM_WAIT");
        // The store and the trace cache are process-global; leaving
        // them armed would warm every later test in this binary.
        ResultStore::configureGlobal("");
        TraceCache::configureGlobal("");
        g_shard_sim_log.clear();
        std::error_code ec;
        std::filesystem::remove_all(_dir, ec);
    }

    std::unique_ptr<SweepServer>
    makeServer(unsigned lanes, unsigned lane_max_retries = 3,
               unsigned shard_requeue_budget = 2)
    {
        ServerConfig config;
        config.socketPath = _socket;
        config.stateDir = _state;
        config.retryAfterSeconds = 0.01;
        config.echo = false;
        config.lanes = lanes;
        config.laneMaxRetries = lane_max_retries;
        config.shardRequeueBudget = shard_requeue_budget;
        auto server = std::make_unique<SweepServer>(config);
        const auto started = server->start();
        EXPECT_TRUE(started.ok())
            << (started.ok() ? "" : started.error().describe());
        return server;
    }

    ExperimentOptions
    quietOptions() const
    {
        ExperimentOptions options;
        options.echo = false;
        return options;
    }

    ClientOptions
    clientOptions() const
    {
        ClientOptions client;
        client.socketPath = _socket;
        client.backoffSeconds = 0.005;
        return client;
    }

    static void
    expectBitIdentical(const RunArtifact &served,
                       const RunArtifact &oracle)
    {
        ASSERT_EQ(served.tables.size(), oracle.tables.size());
        for (std::size_t i = 0; i < oracle.tables.size(); ++i)
            EXPECT_EQ(tableToJson(served.tables[i]).dump(),
                      tableToJson(oracle.tables[i]).dump());
        EXPECT_EQ(served.notes, oracle.notes);
        EXPECT_EQ(served.manifest.eventScale,
                  oracle.manifest.eventScale);
    }

    /** Read frames until the terminal one; progress is skipped. */
    static Json
    readTerminalFrame(int fd)
    {
        for (;;) {
            auto frame = readFrame(fd, 120.0);
            EXPECT_TRUE(frame.ok())
                << (frame.ok() ? "" : frame.error().describe());
            if (!frame.ok())
                return Json::object();
            const std::string type =
                frame.value().stringOr("type", "");
            if (type == "accepted" || type == "progress")
                continue;
            return frame.value();
        }
    }

    /** Poll @p predicate for up to ~20 s. */
    static bool
    eventually(const std::function<bool()> &predicate)
    {
        for (int i = 0; i < 4000; ++i) {
            if (predicate())
                return true;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        }
        return predicate();
    }


    /** gatedShardExperiment() run in-process with the gate open and
     *  no store; the gate is closed again afterwards. */
    RunArtifact
    gatedOracle()
    {
        ResultStore::configureGlobal("");
        std::ofstream(g_shard_gate).put('\n');
        const ExperimentRunResult oracle = runExperimentInProcess(
            gatedShardExperiment(), quietOptions());
        std::filesystem::remove(g_shard_gate);
        EXPECT_EQ(oracle.exitCode, 0);
        return oracle.artifact ? *oracle.artifact : RunArtifact();
    }

    /** Submit gatedShardExperiment() and read progress until grid 1's
     *  two cells resolved: the run (each shard of a two-lane fan-out)
     *  then parks on the gate. Returns the client socket, or -1. */
    int
    submitGatedUntilParked()
    {
        auto fd = connectDaemon(_socket);
        if (!fd.ok())
            return -1;
        const RunRequest request =
            makeRunRequest(gatedShardExperiment().slug, false);
        double cells = 0;
        bool ok = writeFrame(fd.value(), request.toJson()).ok();
        while (ok && cells < 2) {
            auto frame = readFrame(fd.value(), 120.0);
            const std::string type =
                frame.ok() ? frame.value().stringOr("type", "") : "";
            ok = type == "accepted" || type == "progress";
            if (ok)
                cells = frame.value().numberOr("cells", 0);
        }
        if (!ok) {
            ::close(fd.value());
            return -1;
        }
        return fd.value();
    }

    /** Pid of a lane running @p slug, or -1 after ~20 s. */
    int
    busyLane(SweepServer &server, const std::string &slug)
    {
        int pid = -1;
        eventually([&] {
            for (const LaneView &lane : server.laneViews()) {
                if (lane.slug == slug && lane.pid > 0)
                    pid = lane.pid;
            }
            return pid > 0;
        });
        return pid;
    }

    /**
     * Serve gatedShardExperiment() on two lanes whose pool gives up on
     * a pass at its first lane death (laneMaxRetries 0), and SIGKILL
     * one shard's lane while both park on the gate: that shard's pass
     * fails, and the daemon re-queues it or, past @p requeue_budget,
     * abandons it. @p before_gate runs between the kill and the gate
     * opening. Returns the served artifact; @p stats receives the
     * stopped server's counters.
     */
    RunArtifact
    serveWithOneFailedShard(unsigned requeue_budget,
                            const std::function<void()> &before_gate,
                            ServerStats *stats)
    {
        g_shard_sim_log = _dir + "/sim.log";
        ResultStore::configureGlobal(_state + "/store");
        auto server = makeServer(2, /*lane_max_retries=*/0,
                                 requeue_budget);
        const int fd = submitGatedUntilParked();
        EXPECT_GE(fd, 0);
        const int victim =
            busyLane(*server, gatedShardExperiment().slug);
        EXPECT_GT(victim, 0);
        if (fd < 0 || victim <= 0)
            return RunArtifact();
        EXPECT_EQ(::kill(victim, SIGKILL), 0);
        before_gate();
        std::ofstream(g_shard_gate).put('\n');
        const Json terminal = readTerminalFrame(fd);
        ::close(fd);
        server->requestDrain();
        server->waitStopped();
        *stats = server->stats();
        EXPECT_EQ(terminal.stringOr("type", ""), "artifact");
        if (!terminal.contains("artifact"))
            return RunArtifact();
        return RunArtifact::fromJson(terminal.at("artifact"));
    }

    /** Store key of grid 2's @p benchmark cell in
     *  gatedShardExperiment(). */
    static std::string
    gatedGridTwoKey(const std::string &benchmark)
    {
        return ResultStore::cellKey(
            benchmarkTraceCacheKey(benchmark, false),
            countedShardColumns(512).front().specHash);
    }

    std::string _dir;
    std::string _socket;
    std::string _state;
};

TEST_F(ShardServeTest, ShardedFourLanesBitIdenticalToOneAndInProcess)
{
    if (IBP_TSAN)
        GTEST_SKIP() << "fork-based lanes are not TSan-compatible";
    const ExperimentDef &def = shardDiffExperiment();

    // In-process oracle with NO store: pure simulation.
    ResultStore::configureGlobal("");
    const ExperimentRunResult local =
        runExperimentInProcess(def, quietOptions());
    ASSERT_EQ(local.exitCode, 0);
    ASSERT_NE(local.artifact, nullptr);

    // --lanes=1: whole-job path (sharding needs >= 2 lanes), cell
    // claims armed, cold store.
    ResultStore::configureGlobal(_state + "/store-one");
    auto one = makeServer(1);
    ServedOutcome outcome_one;
    const ExperimentRunResult served_one = runExperimentViaDaemon(
        def, quietOptions(), clientOptions(), &outcome_one);
    ASSERT_TRUE(outcome_one.served) << outcome_one.fallbackReason;
    ASSERT_EQ(served_one.exitCode, 0);
    ASSERT_NE(served_one.artifact, nullptr);
    expectBitIdentical(*served_one.artifact, *local.artifact);
    one->requestDrain();
    one->waitStopped();
    EXPECT_EQ(one->stats().jobsSharded, 0u);
    EXPECT_EQ(one->stats().jobsCompleted, 1u);
    ASSERT_TRUE(served_one.artifact->metrics.hasServe());
    EXPECT_EQ(served_one.artifact->metrics.serve().shard.planned,
              0u);
    one.reset();

    // --lanes=4 on a FRESH store: the job fans out as four shards
    // (one owns zero benchmarks - the planner does not shrink to
    // the grid) and the merge pass assembles the artifact.
    ResultStore::configureGlobal(_state + "/store-four");
    auto four = makeServer(4);
    ServedOutcome outcome_four;
    const ExperimentRunResult served_four = runExperimentViaDaemon(
        def, quietOptions(), clientOptions(), &outcome_four);
    ASSERT_TRUE(outcome_four.served) << outcome_four.fallbackReason;
    ASSERT_EQ(served_four.exitCode, 0);
    ASSERT_NE(served_four.artifact, nullptr);
    expectBitIdentical(*served_four.artifact, *local.artifact);

    ASSERT_TRUE(served_four.artifact->metrics.hasServe());
    EXPECT_EQ(served_four.artifact->metrics.serve().shard.planned,
              4u);
    // The merge saw every cell in the store: nothing re-simulated.
    ASSERT_TRUE(served_four.artifact->metrics.hasResultStore());
    const ResultStoreStats merge_store =
        served_four.artifact->metrics.resultStore();
    EXPECT_EQ(merge_store.hits, 6u);
    EXPECT_EQ(merge_store.stores, 0u);

    four->requestDrain();
    four->waitStopped();
    const ServerStats stats = four->stats();
    EXPECT_EQ(stats.jobsSharded, 1u);
    EXPECT_EQ(stats.shardsPlanned, 4u);
    EXPECT_EQ(stats.shardsRequeued, 0u);
    EXPECT_EQ(stats.shardsAbandoned, 0u);
    EXPECT_EQ(stats.jobsCompleted, 1u);
    EXPECT_EQ(stats.laneCrashes, 0u);
}

TEST_F(ShardServeTest, MidShardSigkillNeverResimulatesFinishedCells)
{
    if (IBP_TSAN)
        GTEST_SKIP() << "fork-based lanes are not TSan-compatible";
    const ExperimentDef &def = gatedShardExperiment();

    // Oracle first, gate open so the body never parks, no store and
    // no simulation log (the oracle's constructions are not counted).
    ResultStore::configureGlobal("");
    std::ofstream(g_shard_gate).put('\n');
    const ExperimentRunResult oracle =
        runExperimentInProcess(def, quietOptions());
    ASSERT_EQ(oracle.exitCode, 0);
    ASSERT_NE(oracle.artifact, nullptr);
    std::filesystem::remove(g_shard_gate);

    // Arm the count log and the store BEFORE the fork: both shards
    // inherit them.
    g_shard_sim_log = _dir + "/sim.log";
    ResultStore::configureGlobal(_state + "/store");
    auto server = makeServer(2);

    auto fd = connectDaemon(_socket);
    ASSERT_TRUE(fd.ok());
    const RunRequest request = makeRunRequest(def.slug, false);
    ASSERT_TRUE(writeFrame(fd.value(), request.toJson()).ok());
    auto accepted = readFrame(fd.value());
    ASSERT_TRUE(accepted.ok());
    ASSERT_EQ(accepted.value().stringOr("type", ""), "accepted");

    // Grid 1's two cells resolved (and persisted) across the two
    // shards; both bodies now park on the gate, so NO cell is in
    // flight when the shot lands.
    double cells = 0;
    while (cells < 2) {
        auto frame = readFrame(fd.value(), 120.0);
        ASSERT_TRUE(frame.ok());
        ASSERT_EQ(frame.value().stringOr("type", ""), "progress");
        cells = frame.value().numberOr("cells", 0);
    }

    int victim = -1;
    ASSERT_TRUE(eventually([&] {
        for (const LaneView &lane : server->laneViews()) {
            if (lane.slug == def.slug && lane.pid > 0) {
                victim = lane.pid;
                return true;
            }
        }
        return false;
    }));
    ASSERT_EQ(::kill(victim, SIGKILL), 0);

    // Open the gate for the replacement incarnation: its grid-1
    // partition comes back from the shard journal / the store, then
    // both shards run grid 2 and the merge assembles the artifact.
    std::ofstream(g_shard_gate).put('\n');
    const Json terminal = readTerminalFrame(fd.value());
    ::close(fd.value());

    ASSERT_EQ(terminal.stringOr("type", ""), "artifact");
    EXPECT_EQ(terminal.numberOr("exit_code", -1), 0.0);
    const RunArtifact artifact =
        RunArtifact::fromJson(terminal.at("artifact"));
    expectBitIdentical(artifact, *oracle.artifact);

    // THE core claim: 2 benchmarks x 2 distinct configs = 4 unique
    // cells, and the factory ran exactly once per cell across every
    // lane incarnation - the killed shard's finished cells were
    // restored, not re-simulated; only its unfinished cells re-ran.
    EXPECT_EQ(simulatedCellCount(), 4u);
    // And the merge simulated nothing at all.
    ASSERT_TRUE(artifact.metrics.hasResultStore());
    EXPECT_EQ(artifact.metrics.resultStore().hits, 4u);
    EXPECT_EQ(artifact.metrics.resultStore().stores, 0u);
    ASSERT_TRUE(artifact.metrics.hasServe());
    EXPECT_EQ(artifact.metrics.serve().shard.planned, 2u);

    server->requestDrain();
    server->waitStopped();
    const ServerStats stats = server->stats();
    EXPECT_GE(stats.laneCrashes, 1u);
    EXPECT_GE(stats.lanesForked, 3u);
    EXPECT_EQ(stats.jobsCompleted, 1u);
    EXPECT_EQ(stats.shardsAbandoned, 0u);
}

TEST_F(ShardServeTest, WarmRepeatIsServedByOneStoreOnlyLaneRun)
{
    if (IBP_TSAN)
        GTEST_SKIP() << "fork-based lanes are not TSan-compatible";
    const ExperimentDef &def = shardDiffExperiment();
    ResultStore::configureGlobal("");
    const ExperimentRunResult local =
        runExperimentInProcess(def, quietOptions());
    ASSERT_EQ(local.exitCode, 0);
    ASSERT_NE(local.artifact, nullptr);

    ResultStore::configureGlobal(_state + "/store");
    auto server = makeServer(4);

    // Cold: the store-only pass misses and the job fans out. Every
    // lane's final progress count arrives before its result, so the
    // per-lane counts cover every cell.
    const ExperimentRunResult cold = runExperimentViaDaemon(
        def, quietOptions(), clientOptions());
    ASSERT_EQ(cold.exitCode, 0);
    ASSERT_NE(cold.artifact, nullptr);
    const ShardServeStats fanout = cold.artifact->metrics.serve().shard;
    EXPECT_EQ(fanout.planned, 4u);
    std::uint64_t lane_cells = 0;
    for (const std::uint64_t cells : fanout.laneCells)
        lane_cells += cells;
    EXPECT_GE(lane_cells, cold.artifact->metrics.cellCount());
    EXPECT_EQ(cold.artifact->metrics.cellCount(), 6u);

    // Warm repeat on the same daemon: the store-only pass serves it.
    ServedOutcome outcome;
    const ExperimentRunResult warm = runExperimentViaDaemon(
        def, quietOptions(), clientOptions(), &outcome);
    ASSERT_TRUE(outcome.served) << outcome.fallbackReason;
    ASSERT_EQ(warm.exitCode, 0);
    ASSERT_NE(warm.artifact, nullptr);
    expectBitIdentical(*warm.artifact, *local.artifact);
    const RunMetrics &metrics = warm.artifact->metrics;
    EXPECT_EQ(metrics.resultStore().hits, metrics.cellCount());
    EXPECT_EQ(metrics.resultStore().misses, 0u);
    EXPECT_EQ(metrics.cellCount(), 6u);
    const ShardServeStats alone = metrics.serve().shard;
    EXPECT_EQ(alone.planned, 0u);
    EXPECT_TRUE(alone.laneCells.empty());
    EXPECT_EQ(alone.fanoutSeconds, 0.0);
    EXPECT_GT(alone.mergeSeconds, 0.0);

    server->requestDrain();
    server->waitStopped();
    const ServerStats stats = server->stats();
    EXPECT_EQ(stats.jobsCompleted, 2u);
    EXPECT_EQ(stats.jobsSharded, 1u);
    EXPECT_EQ(stats.shardsPlanned, 4u);
    EXPECT_EQ(stats.jobsStoreServed, 1u);
    EXPECT_EQ(stats.jobsRetried, 0u);
}

TEST_F(ShardServeTest, WarmRepeatOnFourLanesCountsAWarmHit)
{
    if (IBP_TSAN)
        GTEST_SKIP() << "fork-based lanes are not TSan-compatible";
    const ExperimentDef &def = shardDiffExperiment();
    // The lanes inherit the trace cache when they fork: the cold job
    // fills it, the repeat reads every trace from it.
    TraceCache::configureGlobal(_state + "/traces");
    ResultStore::configureGlobal(_state + "/store");
    auto server = makeServer(4);

    const ExperimentRunResult cold = runExperimentViaDaemon(
        def, quietOptions(), clientOptions());
    ASSERT_EQ(cold.exitCode, 0);
    ASSERT_NE(cold.artifact, nullptr);
    // The cold job's store-only pass generated every trace before the
    // shards and the merge found them in the cache: not warm.
    EXPECT_FALSE(cold.artifact->metrics.serve().warm);

    const ExperimentRunResult warm = runExperimentViaDaemon(
        def, quietOptions(), clientOptions());
    ASSERT_EQ(warm.exitCode, 0);
    ASSERT_NE(warm.artifact, nullptr);
    EXPECT_TRUE(warm.artifact->metrics.serve().warm);
    EXPECT_EQ(warm.artifact->metrics.serve().shard.planned, 0u);

    server->requestDrain();
    server->waitStopped();
    const ServerStats stats = server->stats();
    EXPECT_EQ(stats.jobsCompleted, 2u);
    EXPECT_EQ(stats.jobsStoreServed, 1u);
    EXPECT_EQ(stats.warmHits, 1u);
}

TEST_F(ShardServeTest, RepeatMissingOneEntryFansOutAndRestoresNothing)
{
    if (IBP_TSAN)
        GTEST_SKIP() << "fork-based lanes are not TSan-compatible";
    const ExperimentDef &def = twoGridShardExperiment();
    ResultStore::configureGlobal("");
    const ExperimentRunResult local =
        runExperimentInProcess(def, quietOptions());
    ASSERT_EQ(local.exitCode, 0);
    ASSERT_NE(local.artifact, nullptr);

    ResultStore::configureGlobal(_state + "/store");
    auto server = makeServer(2);
    const ExperimentRunResult cold = runExperimentViaDaemon(
        def, quietOptions(), clientOptions());
    ASSERT_EQ(cold.exitCode, 0);

    // Drop grid 2's last cell: the store-only pass serves grid 1,
    // then misses. Had it journalled grid 1, the final merge would
    // restore those cells without their counters.
    const ResultStore *store = ResultStore::global();
    ASSERT_NE(store, nullptr);
    const std::string key = ResultStore::cellKey(
        benchmarkTraceCacheKey("perl", false),
        twoGridColumns().back().front().specHash);
    ASSERT_TRUE(store->contains(key));
    ASSERT_TRUE(std::filesystem::remove(store->pathFor(key)));

    ServedOutcome outcome;
    const ExperimentRunResult repeat = runExperimentViaDaemon(
        def, quietOptions(), clientOptions(), &outcome);
    ASSERT_TRUE(outcome.served) << outcome.fallbackReason;
    ASSERT_EQ(repeat.exitCode, 0);
    ASSERT_NE(repeat.artifact, nullptr);
    expectBitIdentical(*repeat.artifact, *local.artifact);
    EXPECT_EQ(repeat.restoredCells, 0u);
    const RunMetrics &metrics = repeat.artifact->metrics;
    EXPECT_EQ(metrics.serve().shard.planned, 2u);
    EXPECT_EQ(metrics.resultStore().hits, 6u);
    ASSERT_EQ(metrics.cellCount(), 6u);
    for (const CellMetrics &cell : metrics.cells())
        EXPECT_GT(cell.branches, 0u) << cell.column << "/"
                                     << cell.benchmark;

    server->requestDrain();
    server->waitStopped();
    const ServerStats stats = server->stats();
    EXPECT_EQ(stats.jobsCompleted, 2u);
    EXPECT_EQ(stats.jobsSharded, 2u);
    EXPECT_EQ(stats.jobsStoreServed, 0u);
}

TEST_F(ShardServeTest, FailedShardPassIsRequeuedWithinItsBudget)
{
    if (IBP_TSAN)
        GTEST_SKIP() << "fork-based lanes are not TSan-compatible";
    const RunArtifact oracle = gatedOracle();
    ServerStats stats;
    const RunArtifact artifact =
        serveWithOneFailedShard(1, [] {}, &stats);
    expectBitIdentical(artifact, oracle);

    // The failed shard ran again on a fresh lane and resumed from its
    // journal: every cell was simulated once.
    EXPECT_EQ(simulatedCellCount(), 4u);
    ASSERT_TRUE(artifact.metrics.hasServe());
    EXPECT_EQ(artifact.metrics.serve().shard.planned, 2u);
    EXPECT_EQ(artifact.metrics.serve().shard.requeued, 1u);
    EXPECT_EQ(artifact.metrics.serve().shard.abandoned, 0u);
    EXPECT_EQ(stats.shardsRequeued, 1u);
    EXPECT_EQ(stats.shardsAbandoned, 0u);
    EXPECT_EQ(stats.laneCrashes, 1u);
    EXPECT_EQ(stats.jobsCompleted, 1u);
}

TEST_F(ShardServeTest, FailedShardPastItsBudgetIsLeftToTheFinalPass)
{
    if (IBP_TSAN)
        GTEST_SKIP() << "fork-based lanes are not TSan-compatible";
    const RunArtifact oracle = gatedOracle();
    // Hold both grid-2 cells, so the surviving shard cannot steal the
    // abandoned shard's cell: it simulates its own once the short
    // claim wait runs out, and the final pass simulates the other.
    setenv("IBP_CLAIM_WAIT", "0.2", 1);
    CellClaims held;
    ServerStats stats;
    const RunArtifact artifact = serveWithOneFailedShard(
        0,
        [&] {
            held = ResultStore::global()->claims();
            for (const char *benchmark : {"idl", "gcc"})
                EXPECT_TRUE(held.tryClaim(gatedGridTwoKey(benchmark)));
        },
        &stats);
    held.release();
    unsetenv("IBP_CLAIM_WAIT");
    expectBitIdentical(artifact, oracle);

    EXPECT_EQ(simulatedCellCount(), 4u);
    ASSERT_TRUE(artifact.metrics.hasServe());
    const ShardServeStats shard = artifact.metrics.serve().shard;
    EXPECT_EQ(shard.planned, 2u);
    EXPECT_EQ(shard.requeued, 0u);
    EXPECT_EQ(shard.abandoned, 1u);
    // The final pass simulated the abandoned shard's unfinished cell
    // and served the other three.
    ASSERT_TRUE(artifact.metrics.hasResultStore());
    EXPECT_EQ(artifact.metrics.resultStore().stores, 1u);
    EXPECT_EQ(artifact.metrics.resultStore().hits, 3u);
    EXPECT_EQ(stats.shardsRequeued, 0u);
    EXPECT_EQ(stats.shardsAbandoned, 1u);
    EXPECT_EQ(stats.jobsCompleted, 1u);
}

TEST_F(ShardServeTest, DrainDuringFanOutPersistsOneJobAndResumes)
{
    if (IBP_TSAN)
        GTEST_SKIP() << "fork-based lanes are not TSan-compatible";
    const ExperimentDef &def = gatedShardExperiment();
    const RunArtifact oracle = gatedOracle();
    g_shard_sim_log = _dir + "/sim.log";
    ResultStore::configureGlobal(_state + "/store");
    auto server = makeServer(2);

    // Drain while both shards park on the gate: each lane stops at
    // its cell boundary and reports its shard drained.
    const int fd = submitGatedUntilParked();
    ASSERT_GE(fd, 0);
    server->requestDrain();
    const Json terminal = readTerminalFrame(fd);
    ::close(fd);
    EXPECT_EQ(terminal.stringOr("type", ""), "drained");
    server->waitStopped();
    EXPECT_EQ(server->stats().jobsDrained, 1u);
    EXPECT_EQ(server->stats().jobsCompleted, 0u);
    server.reset();

    // One pending entry for the job, not one per shard.
    std::ifstream in(_state + "/pending.json");
    std::stringstream text;
    text << in.rdbuf();
    const Json pending = Json::parse(text.str());
    ASSERT_TRUE(pending.contains("jobs"));
    EXPECT_EQ(pending.at("jobs").size(), 1u);

    // The restarted daemon probes the store, fans the job out again
    // and resumes each shard from its journal; a repeat is then served
    // from the store alone.
    std::ofstream(g_shard_gate).put('\n');
    auto restarted = makeServer(2);
    ASSERT_TRUE(eventually(
        [&] { return restarted->stats().jobsCompleted == 1; }));
    ServedOutcome outcome;
    const ExperimentRunResult repeat = runExperimentViaDaemon(
        def, quietOptions(), clientOptions(), &outcome);
    ASSERT_TRUE(outcome.served) << outcome.fallbackReason;
    ASSERT_EQ(repeat.exitCode, 0);
    ASSERT_NE(repeat.artifact, nullptr);
    expectBitIdentical(*repeat.artifact, oracle);
    restarted->requestDrain();
    restarted->waitStopped();
    const ServerStats stats = restarted->stats();
    EXPECT_EQ(stats.jobsRestored, 1u);
    EXPECT_EQ(stats.jobsSharded, 1u);
    EXPECT_EQ(stats.jobsStoreServed, 1u);
    EXPECT_EQ(stats.jobsCompleted, 2u);
    // No finished cell ran again across the drain.
    EXPECT_EQ(simulatedCellCount(), 4u);
}

TEST_F(ShardServeTest, DrainCountsAQueuedJobDrainedOnce)
{
    if (IBP_TSAN)
        GTEST_SKIP() << "fork-based lanes are not TSan-compatible";
    // One lane and no store: the gated job runs unsharded and parks
    // on the gate, and a second job waits in the queue behind it.
    auto server = makeServer(1);
    const int running = submitGatedUntilParked();
    ASSERT_GE(running, 0);
    auto queued = connectDaemon(_socket);
    ASSERT_TRUE(queued.ok());
    const RunRequest request =
        makeRunRequest(shardDiffExperiment().slug, false);
    ASSERT_TRUE(writeFrame(queued.value(), request.toJson()).ok());
    auto accepted = readFrame(queued.value());
    ASSERT_TRUE(accepted.ok());
    ASSERT_EQ(accepted.value().stringOr("type", ""), "accepted");

    server->requestDrain();
    for (const int fd : {running, queued.value()}) {
        EXPECT_EQ(readTerminalFrame(fd).stringOr("type", ""),
                  "drained");
        ::close(fd);
    }
    server->waitStopped();
    EXPECT_EQ(server->stats().jobsDrained, 2u);
    EXPECT_EQ(server->stats().jobsCompleted, 0u);
    std::ifstream in(_state + "/pending.json");
    std::stringstream text;
    text << in.rdbuf();
    const Json pending = Json::parse(text.str());
    ASSERT_TRUE(pending.contains("jobs"));
    EXPECT_EQ(pending.at("jobs").size(), 2u);
}

TEST_F(ShardServeTest, LaneJobsEndWithoutWaitingOutAHeartbeatTick)
{
    if (IBP_TSAN)
        GTEST_SKIP() << "fork-based lanes are not TSan-compatible";
    const ExperimentDef &def = trivialExperiment();
    SupervisorConfig config;
    config.lanes = 1;
    config.echo = false;
    LaneSupervisor supervisor(config);
    ASSERT_TRUE(supervisor.start().ok());
    const RunRequest request = makeRunRequest(def.slug, false);
    // One job first, so the lane is warm when the clock starts.
    ASSERT_EQ(supervisor.runJob(0, request, "", nullptr).result.exitCode,
              0);

    // A lane that slept out its 25 ms reporter tick after each job
    // would take at least kJobs x 25 ms here. A job costs about
    // 1.5 ms in a Release build and 8 ms under ASan, so the bound
    // leaves room for slow builds and hosts.
    constexpr unsigned kJobs = 20;
    const auto start = std::chrono::steady_clock::now();
    for (unsigned i = 0; i < kJobs; ++i) {
        const LaneJobOutcome outcome =
            supervisor.runJob(0, request, "", nullptr);
        ASSERT_EQ(outcome.result.exitCode, 0);
        ASSERT_NE(outcome.result.artifact, nullptr);
    }
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    EXPECT_LT(seconds, kJobs * 0.015);
    supervisor.shutdown();
}

TEST_F(ShardServeTest, OverlappingConcurrentRunsSimulateSharedCellsOnce)
{
    // Thread-only (no fork): two in-process sessions with cell
    // claims share a store; their intersection must be simulated by
    // exactly one of them, whichever wins the claim.
    ResultStore::configureGlobal(_state + "/store");
    const std::vector<SweepColumn> columns = {
        btbColumn("btb", TableSpec::setAssoc(256, 4), true)};

    RunMetrics metrics_a;
    RunMetrics metrics_b;
    GridResult grid_a;
    GridResult grid_b;
    std::thread thread_a([&] {
        SuiteRunner runner({"idl", "gcc"});
        RunSession session;
        session.metrics = &metrics_a;
        session.cellClaims = true;
        grid_a = runner.run(columns, session);
    });
    std::thread thread_b([&] {
        SuiteRunner runner({"idl", "gcc", "perl"});
        RunSession session;
        session.metrics = &metrics_b;
        session.cellClaims = true;
        grid_b = runner.run(columns, session);
    });
    thread_a.join();
    thread_b.join();

    // Both grids complete regardless of who simulated what.
    EXPECT_EQ(grid_a.presentCount("btb", {"idl", "gcc"}), 2u);
    EXPECT_EQ(grid_b.presentCount("btb", {"idl", "gcc", "perl"}),
              3u);

    ASSERT_TRUE(metrics_a.hasResultStore());
    ASSERT_TRUE(metrics_b.hasResultStore());
    const ResultStoreStats sa = metrics_a.resultStore();
    const ResultStoreStats sb = metrics_b.resultStore();

    // The union is 3 cells; 5 cell-resolutions happened. Exactly 3
    // simulations (each under a claim) and exactly 2 servings of
    // the intersection - as claim-deferred servings when the runs
    // truly overlapped, as plain store hits when one finished
    // first. Any double-simulation breaks the first sum; any lost
    // cell breaks the second.
    EXPECT_EQ(sa.stores + sb.stores, 3u);
    EXPECT_EQ(sa.claims + sb.claims, 3u);
    EXPECT_EQ(sa.hits + sa.claimServed + sb.hits + sb.claimServed,
              2u);
    EXPECT_EQ(sa.invalidated + sb.invalidated, 0u);
}

} // namespace
} // namespace ibp
