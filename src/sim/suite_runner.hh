/**
 * @file
 * Run predictor configurations across the benchmark suite.
 *
 * A SuiteRunner acquires the synthetic traces of a set of benchmarks
 * (in parallel, through the on-disk trace cache when one is
 * configured), then evaluates batches of (configuration x benchmark)
 * grids in parallel across hardware threads - by default feeding
 * every column that shares state with another, across all grids of
 * the batch, from a single trace traversal (simulateMany). It
 * knows the paper's averaging groups (Table 3) and can render
 * results as per-benchmark or per-group ResultTables, which is how
 * every bench binary reproduces its figure or table.
 *
 * Fault tolerance (docs/ROBUSTNESS.md): every cell runs isolated -
 * an error in one (configuration x benchmark) pair is caught,
 * retried under a RetryPolicy when transient, cancelled by a
 * watchdog past its deadline, and on permanent failure recorded as a
 * FailedCell while the rest of the grid completes. Completed cells
 * can be journalled to a CheckpointJournal so a killed sweep resumes
 * where it died.
 */

#ifndef IBP_SIM_SUITE_RUNNER_HH
#define IBP_SIM_SUITE_RUNNER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/predictor.hh"
#include "core/two_level.hh"
#include "report/run_metrics.hh"
#include "robust/checkpoint.hh"
#include "robust/retry.hh"
#include "sim/executor.hh"
#include "sim/simulator.hh"
#include "synth/benchmark_suite.hh"
#include "util/format.hh"

namespace ibp {

/** Builds a fresh predictor instance for one simulation run. */
using PredictorFactory =
    std::function<std::unique_ptr<IndirectPredictor>()>;

/**
 * One labelled configuration of a sweep. Bench code builds columns
 * only through sim/spec_columns.hh (specColumn(), btbColumn()), which
 * derives `make`, `specHash` and `machines` from one config value so
 * the three cannot disagree; only a configuration with no spec codec
 * is still written by hand, as an opaque, unkeyed column.
 */
struct SweepColumn
{
    std::string label;
    PredictorFactory make;
    /**
     * Canonical content hash of the configuration `make` builds
     * (core/spec_codec.hh), or 0 when unknown. A keyed column's
     * cells are served by the content-addressed result store on
     * warm runs; an unkeyed column always simulates. A hand-rolled
     * factory with a hash must guarantee the hash describes EXACTLY
     * what the factory constructs, or the store would serve a
     * different predictor's counters.
     */
    std::uint64_t specHash = 0;
    /**
     * The two-level state machines `make` builds, in spec form, or
     * empty when unknown (an opaque column). SuiteRunner::runBatch()
     * plans its fused chunks from this list: columns that share a
     * machine land in one chunk, where the sweep kernel simulates
     * that machine once for all of them. A wrong list costs fusion,
     * never correctness - the kernel dedups on the configurations
     * the predictors actually carry. The helpers in
     * sim/spec_columns.hh fill it.
     */
    std::vector<TwoLevelConfig> machines = {};
};

/** One cell that failed permanently (isolation kept the grid alive). */
struct FailedCell
{
    std::string column;
    std::string benchmark;
    std::string error;
    ErrorKind kind = ErrorKind::Permanent;
    unsigned attempts = 1;
};

/** Misprediction rates of a sweep: rates[column][benchmark], in %. */
class GridResult
{
  public:
    void set(const std::string &column, const std::string &benchmark,
             double missPercent);
    double get(const std::string &column,
               const std::string &benchmark) const;
    bool has(const std::string &column,
             const std::string &benchmark) const;

    /** Record a cell that could not be computed. */
    void setFailed(FailedCell cell);

    const std::vector<FailedCell> &failures() const
    {
        return _failures;
    }

    /** True when at least one cell failed. */
    bool partial() const { return !_failures.empty(); }

    /**
     * Arithmetic mean over the members of @p members that are
     * present. A partial grid averages what it has; NaN when no
     * member is present at all.
     */
    double average(const std::string &column,
                   const std::vector<std::string> &members) const;

    /** How many of @p members have a value in @p column. */
    std::size_t presentCount(
        const std::string &column,
        const std::vector<std::string> &members) const;

  private:
    std::map<std::string, std::map<std::string, double>> _rates;
    std::vector<FailedCell> _failures;
};

/**
 * Mutable state shared by the runBatch()/run() calls of one
 * experiment: where telemetry and failures go, the retry/deadline
 * policy, the optional checkpoint journal, and the grid-id counter
 * that keeps the grids of an experiment distinguishable inside the
 * journal.
 */
struct RunSession
{
    RunMetrics *metrics = nullptr;
    CheckpointJournal *checkpoint = nullptr;
    RetryPolicy retry;
    /** Next grid id; runBatch() consumes one per grid, in order. */
    unsigned nextGridId = 0;
    /**
     * Drain flag (may be null). While it reads true, run() stops
     * STARTING cells: in-flight cells finish normally (and are
     * journalled), unstarted cells are left absent from the grid -
     * neither completed nor failed - so a drained sweep resumes
     * from its checkpoint journal exactly where it stopped. Used by
     * the ibpd daemon's graceful SIGTERM drain (docs/SERVICE.md).
     */
    const std::atomic<bool> *abort = nullptr;
    /**
     * Invoked once per resolved cell - completed, failed, or
     * journal-restored - from whichever worker thread resolved it.
     * The serve layer streams per-cell progress events with this;
     * it must not block for long or throw.
     */
    std::function<void()> onCellFinished;
    /**
     * Grid sharding (docs/SERVICE.md): when shardCount > 1 AND a
     * result store is armed, runBatch() simulates only the cells of
     * the fused chunks this shard owns, persisting them into the
     * store; foreign keyed cells stay absent from the grid (a later
     * merge pass restores everything from the store), and unkeyed
     * cells are left for the merge outright (they cannot flow
     * through the store). Ownership is assigned per (chunk,
     * benchmark) from the batch's spec-level chunk plan, which every
     * shard computes identically, so each lane keeps every chunk it
     * runs whole: the shared trace traversal and the equal-config
     * machine dedup survive the split. With no store armed the
     * shard spec is ignored and every cell simulates (correct, just
     * unshared).
     */
    unsigned shardIndex = 0;
    unsigned shardCount = 1;
    /**
     * Work stealing: after finishing its own partition, run the
     * foreign (chunk, benchmark) tasks too, fused, taking only the
     * keyed cells no peer has stored or claimed yet, so a crashed or
     * slow shard degrades the fan-out to slack, never to missing
     * cells.
     */
    bool shardSteal = false;
    /**
     * Claim every keyed cell in the store (CellClaims) before
     * simulating it - a task claims its cells when it starts and
     * releases them once they are stored; cells claimed by a live
     * peer are deferred and served from the store once the owner
     * persists them. This is what lets concurrent shards - and
     * concurrent OVERLAPPING requests - simulate every shared cell
     * exactly once. Ignored when no store is armed.
     */
    bool cellClaims = false;
    /**
     * Serve from the result store or not at all: runBatch() probes
     * every cell as usual, and the first cell that would need
     * simulating - a store miss, an unkeyed column, no armed store -
     * throws StoreOnlyMiss before the batch journals or simulates
     * anything. The ibpd daemon runs a shardable job this way first
     * and fans it out only on a miss (docs/SERVICE.md).
     */
    bool storeOnly = false;
};

/** Thrown by SuiteRunner::runBatch() under RunSession::storeOnly
 *  when a cell is not in the result store. It ends the experiment
 *  body; runExperimentInProcess() reports it as storeMissed. */
class StoreOnlyMiss : public std::runtime_error
{
  public:
    StoreOnlyMiss() : std::runtime_error("store-only run missed a cell")
    {
    }
};

/**
 * The chunk plan of a batch (docs/PERFORMANCE.md, "batched grid
 * plan"): which columns of which grids share one fused traversal.
 * Every benchmark runs the same columns, so the plan is computed once
 * per batch from the column specs alone - identically in every shard,
 * which is what makes per-chunk shard ownership consistent.
 *
 * Columns are numbered in batch order (grid by grid). Columns that
 * share a state machine (an equal TwoLevelConfig in
 * SweepColumn::machines) or hold stack-mates (stackMates(): machines
 * equal but for their table, both fully associative or both
 * set-associative with one set count, which the lane engine runs as
 * one stack) are connected; a connected component is the smallest
 * column set that simulates each of its machines - and each of its
 * stacks - exactly once. Components whose tables are all bounded and
 * in no LRU stack are packed first-fit, in order of first appearance,
 * into chunks that never hold more table bytes than the largest such
 * component, so a batch never needs more table memory per traversal
 * than its largest component does; a set stack counts the bytes of
 * its largest member. A component holding an LRU stack gets a chunk
 * of its own. Columns the planner cannot size by bytes - a component
 * with an unbounded table, or an opaque column (no machine list) -
 * join their grid's one unpackable chunk, a unit each, exactly as a
 * one-grid run fused them: one traversal per grid, not one per
 * component. Neither kind sets the packing cap. A one-grid batch has
 * nothing to batch: all of it is its grid's one chunk, a unit per
 * component or opaque column.
 *
 * A chunk is a list of units - its components and opaque columns -
 * and split-on-idle only divides a chunk between units, so a split
 * never duplicates a machine.
 */
struct ChunkPlan
{
    struct Chunk
    {
        /** Units in plan order, each a list of batch columns. */
        std::vector<std::vector<std::size_t>> units;
        /** Table bytes of the packed components (first-fit load). */
        std::uint64_t bytes = 0;
        /** Made of sized components, so open to first-fit. */
        bool packable = false;
    };
    std::vector<Chunk> chunks;
    /** Chunk, and unit within it, of each batch column. */
    std::vector<std::size_t> chunkOf;
    std::vector<std::size_t> unitOf;
};

/** The chunk plan of @p grids (columns numbered in batch order). */
ChunkPlan planChunks(const std::vector<std::vector<SweepColumn>> &grids);

/** Shard owner of the (@p chunk, @p benchmark) task: each
 *  benchmark's chunks are dealt round-robin starting at the
 *  benchmark's own shard, so every shard gets some of every chunk
 *  and derives the same ownership. */
inline unsigned
shardOwner(std::size_t benchmark, std::size_t chunk, unsigned shardCount)
{
    return static_cast<unsigned>((benchmark + chunk) % shardCount);
}

/** How this runner's traces were obtained (cache vs generator). */
struct TraceSourceStats
{
    /** Traces produced by running the generator (cache misses). */
    unsigned generated = 0;
    /** Traces served from the on-disk trace cache (all transports). */
    unsigned cacheHits = 0;
    /** Cache hits served zero-copy from an mmap'ed `.ibpm` entry. */
    unsigned mmapHits = 0;
    /** Wall time of the whole acquisition phase, in seconds. */
    double seconds = 0.0;
};

class SuiteRunner
{
  public:
    /**
     * @param benchmarks        benchmark names to simulate;
     * @param emitConditionals  include conditional-branch records in
     *                          the generated traces (needed only by
     *                          predictors that consume them).
     *
     * Traces are acquired *asynchronously* on the process-wide
     * executor (Executor::global(), sized by simulationThreads()):
     * the constructor validates the benchmark names, spawns one
     * acquisition task per benchmark and returns immediately. Each
     * task first consults the on-disk trace cache when one is
     * configured (TraceCache::global(), i.e. `--trace-cache` /
     * IBP_TRACE_CACHE), and only misses run the generator - under
     * the session-independent retry policy from the environment -
     * then populate the cache for the next run. run() overlaps
     * simulation with acquisition (a benchmark's sweep group starts
     * the moment its trace lands); the accessors below block until
     * acquisition completes, and the destructor waits for any tasks
     * still in flight. A benchmark whose trace cannot be obtained
     * stays in benchmarks() but every later run() marks its cells
     * failed instead of aborting the suite.
     */
    explicit SuiteRunner(std::vector<std::string> benchmarks,
                         bool emitConditionals = false);

    ~SuiteRunner();

    /** The paper's 13-program AVG set (OO + C). */
    static SuiteRunner avgSuite(bool emitConditionals = false);

    /** All 17 programs. */
    static SuiteRunner fullSuite(bool emitConditionals = false);

    const std::vector<std::string> &benchmarks() const
    {
        return _names;
    }

    /** Blocks until acquisition completes. */
    const Trace &trace(const std::string &benchmark) const;

    /** Benchmark name -> error, for traces that failed to generate.
     *  Blocks until acquisition completes. */
    const std::map<std::string, RunError> &failedBenchmarks() const;

    /**
     * Where this runner's traces came from. A warm cache shows
     * generated == 0; run() publishes these counters into the
     * session's RunMetrics once per runner, so artifacts record
     * whether a run paid the generation cost. Blocks until
     * acquisition completes.
     */
    const TraceSourceStats &traceSourceStats() const;

    /**
     * Simulate every (column x benchmark) pair of every grid of
     * @p grids as ONE batch, in parallel, with per-cell isolation
     * governed by @p session (retries, deadline watchdog, checkpoint
     * lookup/append, telemetry and failure records). Returns one
     * GridResult per grid, index-aligned with @p grids.
     *
     * Each grid keeps its identity: it consumes one grid id from the
     * session (in order), and its column labels, result-store keys
     * and journal keys are exactly those of a run() of that grid
     * alone, so the results are too. What the batch changes is the
     * execution (docs/PERFORMANCE.md, "batched grid plan"): the
     * cells of all grids form one universe per benchmark, chunked at
     * the connected components of the column -> machine graph
     * (SweepColumn::machines), so every distinct state machine is
     * simulated once per benchmark however many grids use it, and
     * all chunks share one executor pass with no barrier between
     * grids.
     */
    std::vector<GridResult>
    runBatch(const std::vector<std::vector<SweepColumn>> &grids,
             RunSession &session) const;

    /** A batch of one grid: runBatch({columns}, session). */
    GridResult run(const std::vector<SweepColumn> &columns,
                   RunSession &session) const;

    /**
     * Convenience overload: a throwaway session with the environment
     * retry policy, no checkpoint, and @p metrics as the sink.
     */
    GridResult run(const std::vector<SweepColumn> &columns,
                   RunMetrics *metrics = nullptr) const;

    /**
     * Render a grid as a table with one row per averaging group that
     * is fully covered by this runner's benchmarks, in the paper's
     * order (AVG, AVG-OO, AVG-C, AVG-100, AVG-200, AVG-infreq).
     * Cells whose group has no surviving member stay blank.
     */
    ResultTable groupTable(const std::string &title,
                           const GridResult &grid,
                           const std::vector<SweepColumn> &columns) const;

    /** Render a grid with one row per benchmark plus group rows. */
    ResultTable benchmarkTable(const std::string &title,
                               const GridResult &grid,
                               const std::vector<SweepColumn> &columns)
        const;

    /** Group name -> members, restricted to covered groups. */
    std::vector<std::pair<std::string, std::vector<std::string>>>
    coveredGroups() const;

  private:
    /** One runBatch() call's cells and the stages that resolve them
     *  (sim/batch_run.cc). */
    class BatchRun;

    /**
     * Per-benchmark acquisition slot, index-aligned with _names.
     * `continuations` holds callbacks registered by run() for
     * benchmarks still in flight; they fire (outside the lock) the
     * moment the trace lands, receiving a pointer into _traces -
     * nullptr when acquisition failed.
     */
    struct AcquireSlot
    {
        bool done = false;
        const Trace *trace = nullptr;
        std::vector<std::function<void(const Trace *)>> continuations;
    };

    /** Acquisition task epilogue: publish one benchmark's outcome. */
    void finishAcquire(std::size_t index, bool ok, bool from_cache,
                       Trace trace, const RunError &error);

    /**
     * Run @p continuation with benchmark @p index's trace: inline
     * right now if acquisition already finished, otherwise when it
     * does (on the finishing task's thread).
     */
    void onTraceReady(
        std::size_t index,
        std::function<void(const Trace *)> continuation) const;

    /** Block until every acquisition task published its outcome. */
    void waitAcquisition() const;

    /** Record traceSourceStats() into @p metrics, once per runner. */
    void publishTraceSource(RunMetrics &metrics) const;

    std::vector<std::string> _names;
    /** Snapshot of the constructor flag: together with a benchmark
     *  name it reproduces the trace cache key, which run() folds
     *  into result-store cell keys without waiting for the trace. */
    bool _emitConditionals = false;
    std::map<std::string, Trace> _traces;
    std::map<std::string, RunError> _failedTraces;
    TraceSourceStats _traceStats;
    // One-shot publication latch for the trace-source telemetry;
    // its presence also makes SuiteRunner non-copyable, which is
    // intentional (runners hold the full trace corpus).
    mutable std::atomic<bool> _traceStatsPublished{false};

    /** Guards _acquire/_traces/_failedTraces/_traceStats until
     *  acquisition completes (immutable afterwards). */
    mutable std::mutex _acquireMutex;
    mutable std::condition_variable _acquireCv;
    mutable std::vector<AcquireSlot> _acquire;
    mutable std::size_t _acquireRemaining = 0;
    std::chrono::steady_clock::time_point _acquireStart;

    /**
     * The in-flight acquisition tasks. Declared LAST so it is
     * destroyed FIRST: the Batch destructor waits for the tasks,
     * which reference every member above.
     */
    mutable std::unique_ptr<Executor::Batch> _acquireBatch;
};

/**
 * Number of worker threads used by SuiteRunner::run. Overridable via
 * the IBP_THREADS environment variable (clamped to >= 1); defaults
 * to the hardware concurrency.
 */
unsigned simulationThreads();

} // namespace ibp

#endif // IBP_SIM_SUITE_RUNNER_HH
