/**
 * @file
 * Tests of the content-addressed result store (sim/result_store.hh)
 * and its SuiteRunner integration: store/load round trips,
 * quarantine of corrupt and foreign entries, warm grid re-runs that
 * load every cell bit-identically, incremental re-simulation when
 * only one configuration changes, simulator-version invalidation,
 * the fault-injection bypass, and the checkpoint-journal interplay
 * (restored cells written back exactly once, never counted as hits).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/factory.hh"
#include "core/spec_codec.hh"
#include "robust/fault_injection.hh"
#include "sim/experiment.hh"
#include "sim/result_store.hh"
#include "sim/spec_columns.hh"
#include "sim/suite_runner.hh"
#include "suites.hh"
#include "util/json.hh"

namespace ibp {
namespace {

namespace fs = std::filesystem;

class ResultStoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setenv("IBP_EVENTS", "0.05", 1);
        unsetenv("IBP_RESULT_STORE_VERSION");
        _dir = testing::TempDir() + "/ibp_result_store_test";
        fs::remove_all(_dir);
    }
    void
    TearDown() override
    {
        ResultStore::configureGlobal("");
        FaultInjector::configureGlobal("");
        unsetenv("IBP_RESULT_STORE_VERSION");
        unsetenv("IBP_EVENTS");
        fs::remove_all(_dir);
    }

    StoredResult
    sampleResult() const
    {
        StoredResult result;
        result.benchmark = "idl";
        result.predictor = "twolevel-p3";
        result.branches = 12345;
        result.misses = 678;
        result.noPrediction = 9;
        result.tableOccupancy = 512;
        result.tableCapacity = 1024;
        result.seconds = 0.25;
        result.groupSeconds = 0.5;
        result.sharedTraversal = true;
        result.missPercent = 100.0 * 678 / 12345;
        return result;
    }

    std::string _dir;
};

TEST_F(ResultStoreTest, StoreLoadRoundTrip)
{
    ResultStore store(_dir);
    const StoredResult written = sampleResult();
    ASSERT_TRUE(store.store("cell-1", written).ok());
    ASSERT_TRUE(store.contains("cell-1"));

    const auto loaded = store.load("cell-1");
    ASSERT_EQ(loaded.status, ResultStore::LoadStatus::Hit);
    const StoredResult &read = loaded.result;
    EXPECT_EQ(read.benchmark, written.benchmark);
    EXPECT_EQ(read.predictor, written.predictor);
    EXPECT_TRUE(read.hasCounters);
    EXPECT_EQ(read.branches, written.branches);
    EXPECT_EQ(read.misses, written.misses);
    EXPECT_EQ(read.noPrediction, written.noPrediction);
    EXPECT_EQ(read.tableOccupancy, written.tableOccupancy);
    EXPECT_EQ(read.tableCapacity, written.tableCapacity);
    EXPECT_EQ(read.seconds, written.seconds);
    EXPECT_EQ(read.groupSeconds, written.groupSeconds);
    EXPECT_EQ(read.sharedTraversal, written.sharedTraversal);
    // Bit-identical, not merely close: the grid value a warm run
    // serves is exactly the double the cold run computed.
    EXPECT_EQ(read.missPercent, written.missPercent);
}

/** An entry as the store wrote it before the number writer moved
 *  from an snprintf/strtod loop to std::to_chars: 17-, 16- and
 *  16-digit doubles in seconds, group_seconds and miss_percent. */
constexpr const char *kPinnedEntryText = R"({
  "checksum": "3a4b505c8d538718",
  "payload": {
    "format": 1,
    "key": "pinned-entry",
    "benchmark": "idl",
    "predictor": "twolevel-p3",
    "counters": true,
    "branches": 12345,
    "misses": 678,
    "no_prediction": 9,
    "table_occupancy": 512,
    "table_capacity": 1024,
    "seconds": 0.30000000000000004,
    "group_seconds": 0.3333333333333333,
    "shared_traversal": true,
    "miss_percent": 5.492102065613609
  }
}
)";

TEST_F(ResultStoreTest, EntryTextIsPinnedByteForByte)
{
    // Any drift in the number writer would change entry text and
    // checksums, and quarantine every cell an existing store holds.
    StoredResult pinned = sampleResult();
    pinned.seconds = 0.1 + 0.2;
    pinned.groupSeconds = 1.0 / 3.0;
    ResultStore store(_dir);
    ASSERT_TRUE(store.store("pinned-entry", pinned).ok());
    std::string text;
    {
        std::ifstream in(store.pathFor("pinned-entry"));
        std::ostringstream buffer;
        buffer << in.rdbuf();
        text = buffer.str();
    }
    EXPECT_EQ(text, kPinnedEntryText);

    {
        std::ofstream out(store.pathFor("pinned-entry"));
        out << kPinnedEntryText;
    }
    const auto loaded = store.load("pinned-entry");
    ASSERT_EQ(loaded.status, ResultStore::LoadStatus::Hit);
    EXPECT_EQ(loaded.result.seconds, pinned.seconds);
    EXPECT_EQ(loaded.result.groupSeconds, pinned.groupSeconds);
    EXPECT_EQ(loaded.result.missPercent, pinned.missPercent);
    EXPECT_EQ(loaded.result.misses, pinned.misses);
}

TEST_F(ResultStoreTest, AbsentKeyIsAMiss)
{
    ResultStore store(_dir);
    EXPECT_FALSE(store.contains("nope"));
    EXPECT_EQ(store.load("nope").status,
              ResultStore::LoadStatus::Miss);
}

TEST_F(ResultStoreTest, GarbageEntryIsQuarantinedOnce)
{
    ResultStore store(_dir);
    fs::create_directories(_dir);
    {
        std::ofstream out(store.pathFor("bad"));
        out << "{ not json at all";
    }
    EXPECT_EQ(store.load("bad").status,
              ResultStore::LoadStatus::Invalidated);
    EXPECT_TRUE(fs::exists(store.pathFor("bad") + ".corrupt"));
    // The quarantine removed the entry, so the next probe is a
    // clean miss (and the cell re-simulates, not re-quarantines).
    EXPECT_EQ(store.load("bad").status,
              ResultStore::LoadStatus::Miss);
}

TEST_F(ResultStoreTest, TamperedPayloadFailsTheChecksum)
{
    ResultStore store(_dir);
    ASSERT_TRUE(store.store("cell", sampleResult()).ok());

    std::string text;
    {
        std::ifstream in(store.pathFor("cell"));
        std::ostringstream buffer;
        buffer << in.rdbuf();
        text = buffer.str();
    }
    const auto pos = text.find("\"idl\"");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 5, "\"gcc\"");
    {
        std::ofstream out(store.pathFor("cell"));
        out << text;
    }

    EXPECT_EQ(store.load("cell").status,
              ResultStore::LoadStatus::Invalidated);
    EXPECT_TRUE(fs::exists(store.pathFor("cell") + ".corrupt"));
}

TEST_F(ResultStoreTest, ForeignKeyEchoIsQuarantined)
{
    ResultStore store(_dir);
    ASSERT_TRUE(store.store("cell-a", sampleResult()).ok());
    // A byte-perfect entry copied under the wrong name (e.g. a
    // hand-mangled store directory) must not be served.
    fs::copy_file(store.pathFor("cell-a"), store.pathFor("cell-b"));
    EXPECT_EQ(store.load("cell-b").status,
              ResultStore::LoadStatus::Invalidated);
    EXPECT_EQ(store.load("cell-a").status,
              ResultStore::LoadStatus::Hit);
}

/** Well-formed JSON of the wrong shape must quarantine, not throw:
 *  the typed accessors the checks use throw JsonError on it. */
class WrongShapeEntryTest : public ResultStoreTest
{
  protected:
    void
    expectQuarantined(const ResultStore &store, const std::string &key)
    {
        ResultStore::LoadOutcome outcome;
        EXPECT_NO_THROW(outcome = store.load(key));
        EXPECT_EQ(outcome.status, ResultStore::LoadStatus::Invalidated);
        EXPECT_TRUE(fs::exists(store.pathFor(key) + ".corrupt"));
        EXPECT_EQ(store.load(key).status,
                  ResultStore::LoadStatus::Miss);
    }
};

TEST_F(WrongShapeEntryTest, TopLevelArrayIsQuarantined)
{
    ResultStore store(_dir);
    fs::create_directories(_dir);
    std::ofstream(store.pathFor("cell")) << "[1, 2, 3]";
    expectQuarantined(store, "cell");
}

TEST_F(WrongShapeEntryTest, NumericChecksumIsQuarantined)
{
    ResultStore store(_dir);
    fs::create_directories(_dir);
    std::ofstream(store.pathFor("cell"))
        << "{\"payload\": {\"format\": 1}, \"checksum\": 5}";
    expectQuarantined(store, "cell");
}

TEST_F(WrongShapeEntryTest, CountersWithoutMissesAreQuarantined)
{
    ResultStore store(_dir);
    ASSERT_TRUE(store.store("cell", sampleResult()).ok());
    std::string text;
    {
        std::ifstream in(store.pathFor("cell"));
        std::ostringstream buffer;
        buffer << in.rdbuf();
        text = buffer.str();
    }
    // Drop "misses" and re-seal the checksum, so the entry passes
    // every check before the counters are read.
    const Json entry = Json::parse(text);
    Json payload = Json::object();
    for (const auto &[name, value] : entry.at("payload").members()) {
        if (name != "misses")
            payload.set(name, value);
    }
    ASSERT_TRUE(payload.at("counters").asBool());
    Json resealed = Json::object();
    resealed.set("checksum",
                 specHashHex(specBytesHash(payload.dump())));
    resealed.set("payload", std::move(payload));
    std::ofstream(store.pathFor("cell")) << resealed.dump();
    expectQuarantined(store, "cell");
}

TEST_F(ResultStoreTest, CellKeySeparatesSpecsAndVersions)
{
    const std::uint64_t spec_a =
        specHash(paperTwoLevel(3, TableSpec::setAssoc(256, 4)));
    const std::uint64_t spec_b =
        specHash(paperTwoLevel(4, TableSpec::setAssoc(256, 4)));
    const std::string key_a = ResultStore::cellKey("idl-16", spec_a);
    EXPECT_EQ(key_a, ResultStore::cellKey("idl-16", spec_a));
    EXPECT_NE(key_a, ResultStore::cellKey("idl-16", spec_b));
    EXPECT_NE(key_a, ResultStore::cellKey("gcc-16", spec_a));

    setenv("IBP_RESULT_STORE_VERSION", "999", 1);
    EXPECT_NE(ResultStore::cellKey("idl-16", spec_a), key_a);
    unsetenv("IBP_RESULT_STORE_VERSION");
    EXPECT_EQ(ResultStore::cellKey("idl-16", spec_a), key_a);
}

std::vector<SweepColumn>
keyedColumns()
{
    std::vector<SweepColumn> columns;
    columns.push_back(specColumn(
        "p3", paperTwoLevel(3, TableSpec::setAssoc(256, 4))));
    columns.push_back(
        btbColumn("btb", TableSpec::unconstrained(), true));
    return columns;
}

TEST_F(ResultStoreTest, WarmRerunServesEveryCellBitIdentically)
{
    ResultStore::configureGlobal(_dir);
    SuiteRunner runner({"idl", "self"});
    const auto columns = keyedColumns();

    RunMetrics cold_metrics;
    const GridResult cold = runner.run(columns, &cold_metrics);
    ASSERT_TRUE(cold_metrics.hasResultStore());
    EXPECT_EQ(cold_metrics.resultStore().hits, 0u);
    EXPECT_EQ(cold_metrics.resultStore().misses, 4u);
    EXPECT_EQ(cold_metrics.resultStore().stores, 4u);

    RunMetrics warm_metrics;
    const GridResult warm = runner.run(columns, &warm_metrics);
    ASSERT_TRUE(warm_metrics.hasResultStore());
    EXPECT_EQ(warm_metrics.resultStore().hits, 4u);
    EXPECT_EQ(warm_metrics.resultStore().misses, 0u);
    EXPECT_EQ(warm_metrics.resultStore().invalidated, 0u);
    EXPECT_EQ(warm_metrics.resultStore().stores, 0u);
    // Restored counters still feed cell telemetry.
    EXPECT_EQ(warm_metrics.cellCount(), 4u);
    EXPECT_EQ(warm_metrics.totalBranches(),
              cold_metrics.totalBranches());

    for (const auto &column : columns) {
        for (const auto &name : runner.benchmarks()) {
            ASSERT_TRUE(warm.has(column.label, name));
            EXPECT_EQ(warm.get(column.label, name),
                      cold.get(column.label, name));
        }
    }
}

TEST_F(ResultStoreTest, OnlyChangedConfigurationsResimulate)
{
    ResultStore::configureGlobal(_dir);
    SuiteRunner runner({"idl", "self"});

    std::vector<SweepColumn> first;
    first.push_back(specColumn(
        "p3", paperTwoLevel(3, TableSpec::setAssoc(256, 4))));
    runner.run(first);

    // Add one new configuration: the old column's cells load, only
    // the new one simulates (incremental grid re-simulation).
    std::vector<SweepColumn> extended = first;
    extended.push_back(specColumn(
        "p5", paperTwoLevel(5, TableSpec::setAssoc(256, 4))));
    RunMetrics metrics;
    runner.run(extended, &metrics);
    EXPECT_EQ(metrics.resultStore().hits, 2u);
    EXPECT_EQ(metrics.resultStore().misses, 2u);
    EXPECT_EQ(metrics.resultStore().stores, 2u);
}

TEST_F(ResultStoreTest, VersionBumpInvalidatesTheWholeStore)
{
    ResultStore::configureGlobal(_dir);
    SuiteRunner runner({"idl", "self"});
    const auto columns = keyedColumns();
    runner.run(columns);

    // A simulator-version change mints different cell keys: every
    // warm entry misses cleanly (not quarantined - the old files
    // are simply never consulted again).
    setenv("IBP_RESULT_STORE_VERSION", "2", 1);
    RunMetrics bumped;
    runner.run(columns, &bumped);
    EXPECT_EQ(bumped.resultStore().hits, 0u);
    EXPECT_EQ(bumped.resultStore().misses, 4u);
    EXPECT_EQ(bumped.resultStore().invalidated, 0u);
    unsetenv("IBP_RESULT_STORE_VERSION");

    RunMetrics warm;
    runner.run(columns, &warm);
    EXPECT_EQ(warm.resultStore().hits, 4u);
}

TEST_F(ResultStoreTest, ArmedInjectorBypassesTheStore)
{
    ResultStore::configureGlobal(_dir);
    SuiteRunner runner({"idl"});
    const auto columns = keyedColumns();
    runner.run(columns);
    const auto entries_after_cold =
        std::distance(fs::directory_iterator(_dir),
                      fs::directory_iterator{});

    // Any armed injector (even at probability zero) must force real
    // simulation and keep the store untouched: injected faults have
    // to reach the simulator, and a faulted run must never pollute
    // the store.
    FaultInjector::configureGlobal("sim:0.0,seed=1");
    RunMetrics metrics;
    const GridResult faulted = runner.run(columns, &metrics);
    FaultInjector::configureGlobal("");

    EXPECT_FALSE(metrics.hasResultStore());
    EXPECT_TRUE(faulted.has("p3", "idl"));
    EXPECT_EQ(std::distance(fs::directory_iterator(_dir),
                            fs::directory_iterator{}),
              entries_after_cold);
}

TEST_F(ResultStoreTest, UnkeyedColumnsAlwaysSimulate)
{
    ResultStore::configureGlobal(_dir);
    SuiteRunner runner({"idl"});
    const std::vector<SweepColumn> columns = {
        {"handrolled", []() {
             return std::make_unique<TwoLevelPredictor>(
                 paperTwoLevel(3, TableSpec::setAssoc(256, 4)));
         }}};
    RunMetrics first;
    runner.run(columns, &first);
    RunMetrics second;
    runner.run(columns, &second);
    // The store was armed (telemetry present) but an unkeyed column
    // neither probes nor populates it.
    ASSERT_TRUE(second.hasResultStore());
    EXPECT_EQ(second.resultStore().hits, 0u);
    EXPECT_EQ(second.resultStore().misses, 0u);
    EXPECT_EQ(second.resultStore().stores, 0u);
}

TEST_F(ResultStoreTest, JournalRestoredCellsWriteBackExactlyOnce)
{
    const std::string journal_path = _dir + "-journal.ckpt";
    fs::remove(journal_path);
    CheckpointMeta meta;
    meta.slug = "result-store-test";
    meta.gitSha = "test";
    meta.eventScale = 0.05;
    meta.quick = false;

    SuiteRunner runner({"idl", "self"});
    const auto columns = keyedColumns();

    // Phase 1: journal armed, store disabled - the classic
    // checkpointed sweep.
    GridResult original;
    {
        ResultStore::configureGlobal("");
        auto journal = CheckpointJournal::open(journal_path, meta);
        ASSERT_TRUE(journal.ok());
        RunSession session;
        session.checkpoint = journal.value().get();
        original = runner.run(columns, session);
    }

    // Phase 2: resume from the journal with a store armed. Every
    // cell restores from the journal - NOT a store hit - and is
    // written back into the store exactly once.
    {
        ResultStore::configureGlobal(_dir);
        auto journal = CheckpointJournal::open(journal_path, meta);
        ASSERT_TRUE(journal.ok());
        EXPECT_EQ(journal.value()->restoredCells(), 4u);
        RunMetrics metrics;
        RunSession session;
        session.metrics = &metrics;
        session.checkpoint = journal.value().get();
        runner.run(columns, session);
        EXPECT_EQ(metrics.resultStore().journalWritebacks, 4u);
        EXPECT_EQ(metrics.resultStore().hits, 0u);
        EXPECT_EQ(metrics.resultStore().misses, 0u);
        EXPECT_EQ(metrics.resultStore().stores, 0u);
    }

    // Phase 3: resume AGAIN with the same journal - the store
    // already holds every cell, so nothing is double-written (and
    // nothing is double-counted as a hit).
    {
        auto journal = CheckpointJournal::open(journal_path, meta);
        ASSERT_TRUE(journal.ok());
        RunMetrics metrics;
        RunSession session;
        session.metrics = &metrics;
        session.checkpoint = journal.value().get();
        runner.run(columns, session);
        EXPECT_EQ(metrics.resultStore().journalWritebacks, 0u);
        EXPECT_EQ(metrics.resultStore().hits, 0u);
    }

    // Phase 4: a journal-less warm re-run serves the written-back
    // cells from the store, values identical to the original sweep.
    {
        RunMetrics metrics;
        const GridResult warm = runner.run(columns, &metrics);
        EXPECT_EQ(metrics.resultStore().hits, 4u);
        EXPECT_EQ(metrics.resultStore().misses, 0u);
        // Written back from the journal, these entries carry no
        // counters - the grid value is authoritative, telemetry
        // records no synthetic cells.
        EXPECT_EQ(metrics.cellCount(), 0u);
        for (const auto &column : columns) {
            for (const auto &name : runner.benchmarks()) {
                EXPECT_EQ(warm.get(column.label, name),
                          original.get(column.label, name));
            }
        }
    }
    fs::remove(journal_path);
}

TEST_F(ResultStoreTest, DrainedWarmRunResumesTheSameCells)
{
    // A half-warm grid drained before anything simulates: the store
    // hits are still served (and journalled, as one batch), the cold
    // cells stay unstarted. The resumed run restores exactly those
    // served cells from the journal - not from the store - and
    // simulates the rest, matching a cold run bit for bit.
    const std::string journal_path = _dir + "-warm.ckpt";
    fs::remove(journal_path);
    CheckpointMeta meta;
    meta.slug = "result-store-warm-drain";
    meta.gitSha = "test";
    meta.eventScale = 0.05;

    SuiteRunner runner({"idl", "self"});
    const auto columns = keyedColumns();
    const GridResult cold = runner.run(columns);

    ResultStore::configureGlobal(_dir);
    runner.run({columns[0]});

    GridResult drained;
    {
        auto journal = CheckpointJournal::open(journal_path, meta);
        ASSERT_TRUE(journal.ok());
        std::atomic<bool> abort{true};
        RunMetrics metrics;
        RunSession session;
        session.metrics = &metrics;
        session.checkpoint = journal.value().get();
        session.abort = &abort;
        drained = runner.run(columns, session);
        EXPECT_EQ(metrics.resultStore().hits, 2u);
        EXPECT_EQ(metrics.resultStore().stores, 0u);
        EXPECT_FALSE(drained.partial());
    }
    for (const auto &name : runner.benchmarks()) {
        ASSERT_TRUE(drained.has(columns[0].label, name));
        EXPECT_FALSE(drained.has(columns[1].label, name));
    }

    auto journal = CheckpointJournal::open(journal_path, meta);
    ASSERT_TRUE(journal.ok());
    EXPECT_EQ(journal.value()->restoredCells(), 2u);
    RunMetrics metrics;
    RunSession session;
    session.metrics = &metrics;
    session.checkpoint = journal.value().get();
    const GridResult resumed = runner.run(columns, session);
    EXPECT_EQ(metrics.resultStore().hits, 0u);
    EXPECT_EQ(metrics.resultStore().misses, 2u);
    EXPECT_EQ(metrics.resultStore().stores, 2u);
    for (const auto &column : columns) {
        for (const auto &name : runner.benchmarks()) {
            ASSERT_TRUE(resumed.has(column.label, name));
            EXPECT_EQ(resumed.get(column.label, name),
                      cold.get(column.label, name));
        }
    }
    for (const auto &name : runner.benchmarks()) {
        EXPECT_EQ(resumed.get(columns[0].label, name),
                  drained.get(columns[0].label, name));
    }
    fs::remove(journal_path);
}

TEST_F(ResultStoreTest, WarmQuickFig17ReportsNoThroughput)
{
    // branches_per_second counts only what the run simulated: the
    // warm re-run of quick fig17 loads every cell, so its throughput
    // is 0 while total_branches still matches the cold run.
    ResultStore::configureGlobal(_dir);
    const ExperimentDef &def = fig17Experiment();
    ExperimentOptions options;
    options.quick = true;
    options.echo = false;

    const ExperimentRunResult cold = runExperimentInProcess(def, options);
    ASSERT_EQ(cold.exitCode, 0);
    const RunMetrics &cold_metrics = cold.artifact->metrics;
    EXPECT_EQ(cold_metrics.simulatedBranches(),
              cold_metrics.totalBranches());
    EXPECT_GT(cold_metrics.branchesPerSecond(), 0.0);

    const ExperimentRunResult warm = runExperimentInProcess(def, options);
    ASSERT_EQ(warm.exitCode, 0);
    const RunMetrics &warm_metrics = warm.artifact->metrics;
    EXPECT_EQ(warm_metrics.resultStore().hits, warm_metrics.cellCount());
    EXPECT_EQ(warm_metrics.resultStore().misses, 0u);
    EXPECT_EQ(warm_metrics.totalBranches(), cold_metrics.totalBranches());
    EXPECT_EQ(warm_metrics.simulatedBranches(), 0u);
    EXPECT_DOUBLE_EQ(warm_metrics.branchesPerSecond(), 0.0);
    EXPECT_DOUBLE_EQ(
        warm.artifact->toJson().at("metrics").numberOr(
            "branches_per_second", -1.0),
        0.0);
}

} // namespace
} // namespace ibp
