/**
 * @file
 * Lane supervisor of the ibpd sweep daemon (docs/SERVICE.md,
 * docs/ROBUSTNESS.md).
 *
 * The supervisor owns a fixed pool of worker lane processes
 * (serve/worker.hh) and gives the server three guarantees the
 * in-process runner cannot:
 *
 *  - CRASH CONTAINMENT. A lane that dies - SIGSEGV, injected
 *    std::abort(), external SIGKILL - takes only its own job down.
 *    The supervisor reaps it, forks a replacement, and re-dispatches
 *    the job, which resumes from its checkpoint journal; other lanes
 *    never notice. Retries are bounded: a job whose lane keeps dying
 *    WITHOUT journal progress is failed cleanly after
 *    maxRetriesWithoutProgress attempts (the client sees a normal
 *    retryable error frame, and poisoned cells are skipped by the
 *    journal's start records - robust/checkpoint.hh).
 *
 *  - HARD DEADLINES. Cooperative cancellation cannot interrupt a
 *    cell stuck in an infinite loop. The supervisor enforces
 *    wall-clock ceilings from OUTSIDE with SIGKILL: no progress
 *    frame for cellCeilingSeconds, or a whole job running past
 *    jobCeilingSeconds, kills the lane. A heartbeat timeout
 *    (process wedged enough that not even the heartbeat thread
 *    runs, or the socket died) is handled the same way.
 *
 *  - ISOLATED DRAIN. requestDrain() tells every lane to stop at the
 *    next cell boundary; lanes report their partial runs with the
 *    drained flag and the daemon persists the jobs for resume, with
 *    no retry machinery kicking in during shutdown.
 *
 * Threading: each lane is driven by exactly one server runner
 * thread through runJob(laneIndex, ...) - the monitor loop runs on
 * the caller. requestDrain()/shutdown() come from other threads and
 * only WRITE frames (per-lane write mutex) or kill pids; the
 * monitor remains each socket's only reader.
 */

#ifndef IBP_SERVE_SUPERVISOR_HH
#define IBP_SERVE_SUPERVISOR_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "robust/error.hh"
#include "serve/protocol.hh"
#include "sim/experiment.hh"

namespace ibp {

/** Knobs of the lane pool; ibpd maps flags onto these. */
struct SupervisorConfig
{
    /** Lane processes (and concurrent jobs). */
    unsigned lanes = 2;
    /** SIGKILL a lane when no cell resolves for this long; 0
     *  disables. Spans trace acquisition before the first cell. */
    double cellCeilingSeconds = 0.0;
    /** SIGKILL a lane when one job runs past this; the job is NOT
     *  retried (it would only bust the ceiling again). 0 disables. */
    double jobCeilingSeconds = 0.0;
    /** SIGKILL a lane silent for this long (no frame of any kind;
     *  lanes heartbeat every ~250 ms while running a job). */
    double heartbeatTimeoutSeconds = 10.0;
    /** Lane deaths tolerated per job without journal progress before
     *  the job is failed cleanly. Deaths WITH progress reset the
     *  count: a job crossing a poisoned cell may legitimately lose a
     *  lane per cell until the journal's start records fence the
     *  cell off. */
    unsigned maxRetriesWithoutProgress = 3;
    /** Pause before re-dispatching a crashed job to a fresh lane. */
    double retryBackoffSeconds = 0.1;
    /** Log lane lifecycle to stdout ([ibpd] lines). */
    bool echo = true;
};

/** Lane-pool counters, merged into the server's stats frame. */
struct LaneStats
{
    std::uint64_t lanesForked = 0;
    /** Lanes that died on their own (signal or exit) mid-job. */
    std::uint64_t laneCrashes = 0;
    /** Lanes the supervisor killed for busting a deadline. */
    std::uint64_t laneKills = 0;
    /** Job dispatches beyond each job's first (retries). */
    std::uint64_t jobsRetried = 0;
};

/**
 * Shard assignment riding on one dispatched job. Defaults mean "run
 * the whole job". With count > 1 the lane simulates only its
 * benchmark partition of the grid into the shared result store
 * (sim/suite_runner.hh); cellClaims arms the store's cell-claim
 * layer so concurrent shards and overlapping jobs each compute a
 * cell exactly once.
 */
struct LaneShard
{
    unsigned index = 0;
    unsigned count = 1;
    /** Steal unclaimed foreign cells after finishing the
     *  partition. */
    bool steal = false;
    /** Claim store cells before simulating them. */
    bool cellClaims = false;
    /** Serve every cell from the store or stop at the first miss
     *  (ExperimentOptions::storeOnly); the outcome then reports
     *  storeMissed. */
    bool storeOnly = false;
};

/** What one supervised job run came to. */
struct LaneJobOutcome
{
    ExperimentRunResult result;
    /** Job stopped at a cell boundary for drain; persist, don't
     *  retire. */
    bool drained = false;
};

/** A lane's identity for tests and diagnostics. */
struct LaneView
{
    int pid = -1;
    /** Slug the lane is currently running; empty when idle. */
    std::string slug;
};

class LaneSupervisor
{
  public:
    explicit LaneSupervisor(SupervisorConfig config);
    ~LaneSupervisor();

    LaneSupervisor(const LaneSupervisor &) = delete;
    LaneSupervisor &operator=(const LaneSupervisor &) = delete;

    /**
     * Fork the initial lanes. Call BEFORE the server starts its own
     * threads where possible - fork from a quiet process is the
     * cheap, safe case; replacement forks later pay the full
     * multi-threaded-parent discipline (serve/worker.hh).
     */
    Result<void> start();

    /**
     * Run @p request on lane @p laneIndex, blocking until the job
     * completes, drains, or is failed after bounded retries. The
     * monitor loop streams the lane's progress through @p onProgress
     * (cumulative cell count, from this thread) and enforces every
     * deadline in SupervisorConfig. Must be called by the single
     * runner thread owning @p laneIndex.
     */
    LaneJobOutcome
    runJob(unsigned laneIndex, const RunRequest &request,
           const std::string &checkpointPath,
           const std::function<void(std::size_t)> &onProgress,
           const LaneShard &shard = {});

    /**
     * Ask every lane to stop at its next cell boundary. Idempotent;
     * jobs in flight return through runJob with drained set.
     */
    void requestDrain();

    /**
     * Close every lane socket (EOF = exit), give lanes a short grace
     * to finish, then SIGKILL stragglers and reap everything.
     * runJob must no longer be in flight.
     */
    void shutdown();

    LaneStats stats() const;

    unsigned lanes() const { return _config.lanes; }

    /** Snapshot of pid + current slug per lane (chaos tests kill
     *  specific busy lanes through this). */
    std::vector<LaneView> laneViews() const;

  private:
    struct Lane
    {
        pid_t pid = -1;
        int fd = -1;
        /** Serialises job/drain frames from runner vs drain threads. */
        std::mutex writeMutex;
        std::string currentSlug;
    };

    /** Kill (if alive) and reap a lane, closing its socket. */
    void reapLane(Lane &lane, bool kill);
    /** Fork a replacement into @p lane. */
    Result<void> respawnLane(Lane &lane);
    void logLine(const char *format, ...) const;

    SupervisorConfig _config;
    /** unique_ptr: Lane holds a mutex and must not move. */
    std::vector<std::unique_ptr<Lane>> _lanes;
    mutable std::mutex _mutex;
    LaneStats _stats;
    bool _draining = false;
    bool _started = false;
};

} // namespace ibp

#endif // IBP_SERVE_SUPERVISOR_HH
