/**
 * @file
 * Telemetry collected while a bench binary runs its simulations.
 *
 * A RunMetrics instance aggregates one counter record per
 * (configuration x benchmark) simulation cell: branches simulated,
 * wall time, and final table occupancy. SuiteRunner::run() records
 * cells from its worker threads; recording happens once per cell
 * (never inside the per-branch hot loop), so the overhead on the
 * simulation itself is two clock reads and one mutex acquisition per
 * grid cell.
 *
 * The aggregates (total branches, branches/sec throughput, peak
 * occupancy, thread count) land in the JSON run artifact where the
 * baseline regression gate can enforce a throughput floor.
 */

#ifndef IBP_REPORT_RUN_METRICS_HH
#define IBP_REPORT_RUN_METRICS_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.hh"

namespace ibp {

/** Counters of one (configuration x benchmark) simulation. */
struct CellMetrics
{
    std::string column;
    std::string benchmark;
    std::uint64_t branches = 0;
    /** Per-cell wall time. Synthetic (an even split of the shared
     *  traversal time) when secondsSynthetic is set. */
    double seconds = 0.0;
    /** Wall time of the traversal that produced this cell: equals
     *  `seconds` for an isolated per-cell run, the undivided group
     *  time when the cell came out of a fused traversal. */
    double groupSeconds = 0.0;
    /** True when `seconds` is a synthetic even split of
     *  groupSeconds (fused single-pass engine). */
    bool secondsSynthetic = false;
    std::uint64_t tableOccupancy = 0;
    std::uint64_t tableCapacity = 0;
};

/**
 * Telemetry of the fused sweep engine (docs/PERFORMANCE.md): how many
 * benchmark chunks ran fused versus falling back to the per-cell
 * isolated path, and why. Counters are cumulative across run() calls
 * of one session, mirroring the trace-source counters.
 */
struct SweepKernelStats
{
    /** Chunks simulated by the fused single-pass engine. */
    unsigned groupsFused = 0;
    /** Chunks that fell back to the per-cell path (sum of the
     *  per-reason counters below). */
    unsigned groupsPerCell = 0;
    /** Predictors that joined a SweepKernel (shared history). */
    unsigned predictorsBound = 0;
    /** Predictors in fused chunks that declined to join (they still
     *  rode the shared traversal with private history). */
    unsigned predictorsUnbound = 0;
    /** Two-level members the lane plan folded onto an earlier
     *  equal-configuration machine (TraversalStats::foldedMembers). */
    unsigned predictorsDeduped = 0;
    /** Fallback cause: a predictor factory threw. */
    unsigned fallbackFactory = 0;
    /** Fallback cause: the watchdog cancelled the fused traversal. */
    unsigned fallbackCancelled = 0;
    /** Fallback cause: an injected fault at the "fused" site. */
    unsigned fallbackInjected = 0;
    /** Fallback cause: a sim-armed fault injector disabled the fused
     *  engine wholesale (per-cell attempt accounting must hold). */
    unsigned fallbackInjectorArmed = 0;
    /** Fallback cause: any other error during the fused attempt. */
    unsigned fallbackError = 0;
};

/**
 * Telemetry of the ibpd sweep daemon (docs/SERVICE.md), recorded by
 * the server into artifacts it serves and by the client into the
 * artifact it writes locally. Its presence is what distinguishes a
 * daemon-served artifact from an in-process one (report_diff
 * --require-served gates on it); everything else about a served
 * artifact is bit-identical to the in-process run.
 */
/**
 * Telemetry of the grid sharder (docs/SERVICE.md): how the daemon
 * split one job's cells across worker lanes, what the steal/requeue
 * machinery did, and how much of the grid overlapping concurrent
 * requests shared through the cell-claim layer. Recorded by the
 * server onto the artifacts of shardable jobs: sharded ones, and
 * ones the store-only merge served alone (planned == 0, merge time
 * set); lanes that run a whole job leave it empty (both zero means
 * absent).
 */
struct ShardServeStats
{
    /** Shards the planner fanned out for this job. */
    unsigned planned = 0;
    /** Shard re-dispatches after a lane failure. */
    unsigned requeued = 0;
    /** Shards abandoned after the re-queue budget; their cells were
     *  swept up by the merge pass instead. */
    unsigned abandoned = 0;
    /** Cells a shard stole from a slower peer's partition. */
    std::uint64_t stolenCells = 0;
    /** Cells served from the store after deferring to another
     *  claimer (the cross-request overlap win). */
    std::uint64_t overlapCoalesced = 0;
    /** Cells simulated per lane index during the fan-out. */
    std::vector<std::uint64_t> laneCells;
    /** Wall time of the parallel shard fan-out. */
    double fanoutSeconds = 0.0;
    /** Wall time of the single-lane merge runs: the store-only
     *  pass, plus the final merge when that pass missed. */
    double mergeSeconds = 0.0;
};

struct ServeMetrics
{
    /** Requests this run absorbed: 1 for a dedicated job, more when
     *  coalesced subscribers shared it. */
    unsigned requests = 0;
    /** Requests served by attaching to an existing identical job
     *  instead of queueing a new execution. */
    unsigned coalesced = 0;
    /** Admission rejections (queue full) the request rode out with
     *  retry-after backoff before being accepted. */
    unsigned admissionRejects = 0;
    /** True when the serving daemon paid zero trace generations for
     *  this run (its warm state absorbed the acquisition cost). */
    bool warm = false;
    /** Wall time the request spent queued before its job started. */
    double queueSeconds = 0.0;
    /** Server-side wall time from job start to terminal state (the
     *  lane-scaling gates compare this across --lanes values). */
    double jobSeconds = 0.0;
    /** Grid-sharder telemetry; planned == 0 when the job ran
     *  unsharded. */
    ShardServeStats shard;
};

/**
 * Telemetry of the content-addressed result store
 * (sim/result_store.hh): how many grid cells were loaded instead of
 * simulated, how many were computed and persisted, and how many
 * stored entries were quarantined. Counters are cumulative across
 * run() calls of one session, mirroring the trace-source counters.
 * The CI warm-store gate asserts hits == cells with zero misses on
 * a warm re-run (report_diff --require-result-cached).
 */
struct ResultStoreStats
{
    /** Cells restored from a stored entry instead of simulating. */
    unsigned hits = 0;
    /** Cells probed but absent from the store (then simulated). */
    unsigned misses = 0;
    /** Cells simulated and persisted into the store. */
    unsigned stores = 0;
    /** Stored entries that failed validation and were quarantined
     *  to `<file>.corrupt` (then re-simulated). */
    unsigned invalidated = 0;
    /** Journal-restored cells written back into the store (exactly
     *  once each); these are NOT hits - the checkpoint journal, not
     *  the store, resurrected them. */
    unsigned journalWritebacks = 0;
    /** Cell claims this run acquired (then simulated the cell). */
    unsigned claims = 0;
    /** Claim attempts that lost to a live peer (the cell was
     *  deferred instead of simulated). */
    unsigned claimBusy = 0;
    /** Deferred cells eventually served from the entry the claim
     *  owner persisted - each one a simulation NOT repeated. The
     *  overlapping-request test asserts the intersection shows up
     *  here, not in `stores`. */
    unsigned claimServed = 0;
    /** Foreign-partition cells this runner claimed and simulated in
     *  its steal sweep (shard rebalancing). */
    unsigned stolen = 0;
};

/**
 * Telemetry of the SIMD/SoA batch engine (docs/PERFORMANCE.md): the
 * vector dispatch level the process resolved, why it is not at full
 * width, and how the fused traversals fed their records (zero-copy
 * columnar blocks vs per-block transposes) and partitioned their
 * predictor columns (batched lane engine vs generic
 * record-at-a-time). Counters are cumulative across run() calls of
 * one session, mirroring the sweep-kernel counters; the strings are
 * process-global and simply kept current.
 */
struct SimdStats
{
    /** Resolved dispatch level: "scalar", "sse2" or "avx2". */
    std::string dispatchLevel;
    /** Why the process is below full width ("" at full width,
     *  else e.g. "IBP_SIMD=off" or "cpu-lacks-avx2"). */
    std::string fallbackReason;
    /** Trace blocks sliced zero-copy from a trace's columns (every
     *  block). */
    std::uint64_t columnarBlocks = 0;
    /** Trace blocks transposed from record storage. Traces are
     *  columns, so this is always 0; the artifact keeps the field. */
    std::uint64_t transposedBlocks = 0;
    /** Records skipped wholesale by the vectorized block
     *  classifier. */
    std::uint64_t skippedRecords = 0;
    /** Predictor columns executed by the batched lane engine,
     *  summed over fused traversals. */
    std::uint64_t laneColumns = 0;
    /** Columns that ran the generic record-at-a-time path. */
    std::uint64_t genericColumns = 0;
    /** Distinct state machines (dedup owners) the lane engine
     *  drove, summed over fused traversals. */
    std::uint64_t laneMachines = 0;
    /** LRU stacks the lane engine ran, summed over fused
     *  traversals (TraversalStats::lruStacks). */
    std::uint64_t lruStacks = 0;
    /** Lane machines run as LRU stack members, a subset of
     *  laneMachines (TraversalStats::stackedMembers). */
    std::uint64_t stackedMembers = 0;
    /** Set stacks the lane engine ran, summed over fused traversals
     *  (TraversalStats::setStacks). */
    std::uint64_t setStacks = 0;
    /** Lane machines run as set stack members, a subset of
     *  laneMachines (TraversalStats::setStackedMembers). */
    std::uint64_t setStackedMembers = 0;
};

/**
 * Record of one cell that permanently failed (all retries
 * exhausted, or a non-retryable error). Artifacts carrying any of
 * these are *partial*: report_diff rejects them unless explicitly
 * allowed (see docs/ROBUSTNESS.md).
 */
struct FailureRecord
{
    std::string column;
    std::string benchmark;
    std::string error; ///< Human-readable cause.
    std::string kind;  ///< "transient" / "permanent" / "timeout".
    unsigned attempts = 1;
};

class RunMetrics
{
  public:
    RunMetrics() = default;
    RunMetrics(const RunMetrics &other);
    RunMetrics &operator=(const RunMetrics &other);

    /** Record one finished simulation cell. Thread-safe. */
    void recordCell(const CellMetrics &cell);

    /**
     * Record a cell served from the result store instead of
     * simulated: its counters and seconds are those of the run that
     * computed it, so it counts in totalBranches() but not in this
     * run's throughput. Thread-safe.
     */
    void recordStoredCell(const CellMetrics &cell);

    /** Record one permanently failed cell. Thread-safe. */
    void recordFailure(const FailureRecord &failure);

    /** Record the wall time of one parallel grid run. Thread-safe. */
    void recordRunWindow(double seconds);

    /** Record the worker-thread count (the maximum is kept). */
    void recordThreads(unsigned count);

    /**
     * Record how the run's traces were obtained: @p generated ran
     * the generator (trace-cache misses or no cache), @p mmapHits
     * were served zero-copy from mmap'ed `.ibpm` cache entries,
     * @p streamHits were parsed from `.ibpt` stream entries (the
     * trace cache reads none, so SuiteRunner passes 0; the artifact
     * keeps the field), @p seconds is the wall time of the
     * acquisition phase.
     * Cumulative across runners; a warm fully-cached run shows
     * tracesGenerated() == 0, which is what the CI cache-smoke gate
     * asserts (and --require-mmap additionally demands
     * mmapHits > 0 == streamHits). Thread-safe.
     */
    void recordTraceSource(unsigned generated, unsigned mmapHits,
                           unsigned streamHits, double seconds);

    /**
     * Record which predictor-table implementation produced the run
     * ("flat" or "reference", see core/table_spec.hh). Shows up as
     * "table_impl" in the artifact so a regression-gate comparison
     * against a baseline produced by the other implementation is
     * visible in the diff context.
     */
    void recordTableImpl(const std::string &name);

    std::vector<CellMetrics> cells() const;
    std::size_t cellCount() const;

    std::vector<FailureRecord> failures() const;
    std::size_t failureCount() const;

    /** Sum of branches over all recorded cells. */
    std::uint64_t totalBranches() const;

    /** Sum of branches over the cells this run simulated (stored
     *  cells excluded). */
    std::uint64_t simulatedBranches() const;

    /** Sum of per-cell simulation time (CPU-side, across workers). */
    double cellSeconds() const;

    /** Sum of recorded grid wall-clock windows. */
    double runSeconds() const;

    /**
     * Aggregate throughput: simulated branches divided by grid wall
     * time (so it credits parallelism). Stored cells are not counted
     * - the run did not simulate them - so a fully warm run reports
     * 0, as does a run that timed nothing.
     */
    double branchesPerSecond() const;

    /** Largest per-cell final table occupancy observed. */
    std::uint64_t peakTableOccupancy() const;

    unsigned threads() const;

    /** Traces produced by the generator (0 on a fully warm cache). */
    unsigned tracesGenerated() const;

    /** Traces served from the on-disk trace cache (all transports). */
    unsigned traceCacheHits() const;

    /** Cache hits served zero-copy via mmap. */
    unsigned traceMmapHits() const;

    /** Cache hits parsed from legacy stream entries. */
    unsigned traceStreamHits() const;

    /**
     * Dominant trace read path: "generated", "mmap", "stream",
     * "mixed" (both cache transports), "cache" (hits from an
     * artifact predating the transport split), or "none".
     */
    std::string traceReadPath() const;

    /** Wall time of the trace acquisition phase(s), in seconds. */
    double traceSeconds() const;

    /** True when recordTraceSource() was ever called. */
    bool hasTraceSource() const;

    /** Table implementation recorded for this run ("" if never). */
    std::string tableImpl() const;

    /**
     * Record fused-engine telemetry for one grid run. Cumulative
     * across calls (counters add up). Thread-safe.
     */
    void recordSweepKernel(const SweepKernelStats &stats);

    /** True when recordSweepKernel() was ever called. */
    bool hasSweepKernel() const;

    /** Aggregated fused-engine telemetry (zeros if never recorded). */
    SweepKernelStats sweepKernel() const;

    /**
     * Record SIMD/SoA engine telemetry for one grid run. Counters
     * add up across calls; the dispatch strings are overwritten
     * (they describe the process, not the run). Thread-safe.
     */
    void recordSimd(const SimdStats &stats);

    /** True when recordSimd() was ever called. */
    bool hasSimd() const;

    /** SIMD/SoA engine telemetry (zeros if never recorded). */
    SimdStats simd() const;

    /**
     * Record daemon-service telemetry for this run. Counters add up
     * across calls (a coalesced request layers onto the job's own
     * record); `warm` and `queueSeconds` keep the maximum.
     * Thread-safe.
     */
    void recordServe(const ServeMetrics &stats);

    /** True when recordServe() was ever called, i.e. the run was
     *  served by (or through) an ibpd daemon. */
    bool hasServe() const;

    /** Daemon-service telemetry (zeros if never recorded). */
    ServeMetrics serve() const;

    /**
     * Record result-store telemetry for one grid run. Cumulative
     * across calls (counters add up). Thread-safe.
     */
    void recordResultStore(const ResultStoreStats &stats);

    /** True when recordResultStore() was ever called, i.e. the run
     *  executed with an armed result store. */
    bool hasResultStore() const;

    /** Result-store telemetry (zeros if never recorded). */
    ResultStoreStats resultStore() const;

    Json toJson() const;
    static RunMetrics fromJson(const Json &json);

  private:
    mutable std::mutex _mutex;
    std::vector<CellMetrics> _cells;
    /** Branches of the cells recorded by recordStoredCell(). */
    std::uint64_t _storedBranches = 0;
    std::vector<FailureRecord> _failures;
    double _runSeconds = 0.0;
    unsigned _threads = 0;
    bool _hasTraceSource = false;
    unsigned _tracesGenerated = 0;
    unsigned _traceCacheHits = 0;
    unsigned _traceMmapHits = 0;
    unsigned _traceStreamHits = 0;
    double _traceSeconds = 0.0;
    std::string _tableImpl;
    bool _hasSweepKernel = false;
    SweepKernelStats _sweepKernel;
    bool _hasSimd = false;
    SimdStats _simd;
    bool _hasServe = false;
    ServeMetrics _serve;
    bool _hasResultStore = false;
    ResultStoreStats _resultStore;
};

} // namespace ibp

#endif // IBP_REPORT_RUN_METRICS_HH
