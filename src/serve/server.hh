/**
 * @file
 * The ibpd sweep server: a resident process that owns the warm
 * simulation state - the process-wide Executor, the on-disk trace
 * cache, and the experiment registry - and serves sweep requests
 * from many concurrent clients over a unix-domain socket
 * (docs/SERVICE.md).
 *
 * Design:
 *
 *  - One ACCEPT thread hands each connection to a short-lived
 *    connection thread, which parses the single request frame and
 *    streams reply frames (serve/protocol.hh).
 *  - JOB RUNNER threads execute queued jobs in priority order (FIFO
 *    within a level). With lanes == 0 a single runner executes jobs
 *    in-process, strictly one at a time: the full worker pool serves
 *    one sweep, exactly as a bench binary would, so every run is
 *    bit-identical to its in-process twin. With lanes >= 1 each
 *    runner drives one worker lane PROCESS through the lane
 *    supervisor (serve/supervisor.hh): jobs are crash-isolated,
 *    wall-clock deadlines are enforced with SIGKILL, and a dead lane
 *    is replaced while its job resumes from the checkpoint journal.
 *    A single job still owns a whole lane, so --lanes=1 artifacts
 *    are bit-identical to the in-process runner's.
 *  - ONE JOB LIFECYCLE: every queued task is one pass of a job
 *    (Probe, Shard or Final; see PassKind). A runner runs it through
 *    runPass() and hands the outcome to advance(), the one function
 *    that decides what comes next; finishJob() and markJobDrained()
 *    are the only terminal transitions.
 *  - ADMISSION CONTROL bounds the queue: a request that would push
 *    the queued depth past the configured bound is rejected with a
 *    retry-after hint instead of being buffered without limit.
 *  - COALESCING: a request whose signature (slug + quick) matches a
 *    queued or running job attaches to that job as an additional
 *    subscriber; both clients receive the identical artifact of one
 *    execution, and the artifact's metrics.serve.coalesced counts
 *    the shared riders.
 *  - GRACEFUL DRAIN: requestDrain() (SIGTERM in ibpd) stops
 *    admission, aborts the running sweep at the next cell boundary
 *    via RunSession::abort - completed cells are already in the
 *    job's checkpoint journal - persists every unfinished request to
 *    stateDir/pending.json, and notifies waiting subscribers with a
 *    "drained" frame so they can retry or fall back. A restarted
 *    server re-enqueues the pending requests and resumes them from
 *    their journals.
 */

#ifndef IBP_SERVE_SERVER_HH
#define IBP_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "robust/error.hh"
#include "serve/protocol.hh"
#include "serve/supervisor.hh"
#include "sim/experiment.hh"

namespace ibp {

struct ServerConfig
{
    /** Socket to listen on ("" resolves via daemonSocketPath()). */
    std::string socketPath;
    /** Durable state: per-job checkpoint journals, pending.json. */
    std::string stateDir = "out/ibpd-state";
    /** Admission bound: maximum QUEUED (not running) jobs. */
    std::size_t maxQueueDepth = 8;
    /** Retry-after hint sent with admission rejections. */
    double retryAfterSeconds = 0.25;
    /** Log one line per lifecycle event to stdout. */
    bool echo = true;
    /** Worker lane processes. 0 = run jobs in-process on one runner
     *  thread (the embedded/test mode); >= 1 = supervised lanes with
     *  crash isolation and hard deadlines (ibpd defaults to 2). */
    unsigned lanes = 0;
    /** SIGKILL a lane with no cell progress for this long; 0 off. */
    double cellCeilingSeconds = 0.0;
    /** SIGKILL a lane whose job runs past this (no retry); 0 off. */
    double jobCeilingSeconds = 0.0;
    /** SIGKILL a lane silent (no frame at all) for this long. */
    double heartbeatTimeoutSeconds = 10.0;
    /** Lane deaths tolerated per job without checkpoint progress. */
    unsigned laneMaxRetries = 3;
    /** Pause before re-dispatching a crashed job to a fresh lane. */
    double laneRetryBackoffSeconds = 0.1;
    /** Re-dispatches allowed per shard after its lane pool gives up,
     *  before the shard is abandoned (the final pass then simulates
     *  its unfinished cells on one lane). */
    unsigned shardRequeueBudget = 2;
};

/** Cumulative counters, exposed over the "stats" request. */
struct ServerStats
{
    std::uint64_t jobsAccepted = 0;
    std::uint64_t requestsCoalesced = 0;
    std::uint64_t requestsRejected = 0;
    std::uint64_t requestsIncompatible = 0;
    std::uint64_t jobsCompleted = 0;
    std::uint64_t jobsDrained = 0;
    /** Completed jobs that paid zero trace generations. */
    std::uint64_t warmHits = 0;
    std::uint64_t jobsRestored = 0;
    /** Lane-pool counters (all zero with lanes == 0). */
    std::uint64_t lanesForked = 0;
    std::uint64_t laneCrashes = 0;
    std::uint64_t laneKills = 0;
    std::uint64_t jobsRetried = 0;
    /** Shardable jobs the store held in full: one store-only lane
     *  run served them, with no fan-out. */
    std::uint64_t jobsStoreServed = 0;
    /** Grid-sharder counters (all zero unless jobs were sharded). */
    std::uint64_t jobsSharded = 0;
    std::uint64_t shardsPlanned = 0;
    std::uint64_t shardsRequeued = 0;
    std::uint64_t shardsAbandoned = 0;
    std::uint64_t shardCellsStolen = 0;
    /** Cells one job deferred on and another claimant simulated
     *  (the cross-request overlap win of the cell-claim layer). */
    std::uint64_t overlapCellsCoalesced = 0;
};

class SweepServer
{
  public:
    explicit SweepServer(ServerConfig config);
    ~SweepServer();

    SweepServer(const SweepServer &) = delete;
    SweepServer &operator=(const SweepServer &) = delete;

    /**
     * Bind the socket, re-enqueue any requests a previous drain
     * persisted, and start the accept and job-runner threads.
     */
    Result<void> start();

    /**
     * Begin a graceful drain (idempotent, non-blocking, callable
     * from any thread including connection threads): stop admission,
     * abort the running sweep at its next cell boundary, persist
     * unfinished requests, wake every waiter. Completion is observed
     * via waitStopped().
     */
    void requestDrain();

    /** Block until every server thread has exited (requires a prior
     *  or concurrent requestDrain()), then remove the socket. */
    void waitStopped();

    ServerStats stats() const;

    const ServerConfig &config() const { return _config; }

    /** Resolved socket path the server is (or will be) bound to. */
    const std::string &socketPath() const { return _socketPath; }

    /** Lane pids + current slugs (empty with lanes == 0). Chaos
     *  tests kill specific busy lanes through this. */
    std::vector<LaneView> laneViews() const;

  private:
    enum class JobState { Queued, Running, Done, Drained };

    /** One queued/running execution plus its subscribers' view. */
    struct Job
    {
        std::uint64_t id = 0;
        RunRequest request;
        /** Guards everything below; subscribers wait on cv. */
        std::mutex mutex;
        std::condition_variable cv;
        JobState state = JobState::Queued;
        std::size_t cellsDone = 0;
        /** Sum of subscriber requests (1 per attach). */
        unsigned subscribers = 0;
        /** Subscribers beyond the first (shared riders). */
        unsigned coalesced = 0;
        /** Sum of the subscribers' reported admission rejections. */
        unsigned clientRejects = 0;
        double queueSeconds = 0.0;
        std::chrono::steady_clock::time_point enqueuedAt;
        /** Stamped when the first task of the job starts running;
         *  meaningful only while state is Running or later. */
        std::chrono::steady_clock::time_point startedAt;
        ExperimentRunResult result;

        // ---- grid-sharder bookkeeping (zero for unsharded jobs;
        // guarded by mutex like everything above) ----
        /** Shards planned for this job; 0 = none (yet): a shardable
         *  job starts as a store probe and is planned only when that
         *  misses. */
        unsigned shardCount = 0;
        /** Stamped when the shards are planned. */
        std::chrono::steady_clock::time_point fanoutStartedAt;
        /** Shards that finished or were abandoned; the final pass is
         *  enqueued when this reaches shardCount. */
        unsigned shardsTerminal = 0;
        /** Monotonic per-shard resolved-cell maxima; streamed
         *  progress is their sum. */
        std::vector<std::size_t> shardCells;
        /** Dispatch count per shard (first run + re-queues), checked
         *  against ServerConfig::shardRequeueBudget. */
        std::vector<unsigned> shardDispatches;
        /** Aggregated fan-out telemetry, stamped onto the final
         *  artifact's serve metrics. */
        ShardServeStats shardServe;
        /** A lane run before the final one (the probe that missed, a
         *  shard) generated a trace or returned no artifact to tell:
         *  the job is not warm, whatever the final run found in the
         *  trace cache those runs filled. */
        bool tracesGenerated = false;
    };

    /**
     * A task is one lane pass of a job (docs/SERVICE.md, "Job
     * lifecycle"). A shardable job starts as a Probe: the job run
     * store-only with no journal, which serves a job the store holds
     * in full. A miss fans the job out as one Shard per lane, each
     * simulating its benchmark partition into the store, and the
     * Final pass - the job itself, unsharded on one lane with its
     * main journal - assembles the artifact. Every other job is
     * enqueued as its Final pass directly.
     */
    enum class PassKind { Probe, Shard, Final };
    struct Task
    {
        std::shared_ptr<Job> job;
        PassKind kind = PassKind::Final;
        unsigned shardIndex = 0;
    };

    /** One client connection and the thread serving it. */
    struct Connection
    {
        std::thread thread;
        std::atomic<bool> finished{false};
        /** -1 once the serving thread has closed it. */
        int fd = -1;
    };

    void acceptLoop();
    void reapConnections();
    void serveConnection(const std::shared_ptr<Connection> &conn);
    void handleRun(int fd, const RunRequest &request);
    /** Coalesce @p request onto a live job or queue a new one, and
     *  send the "accepted" frame; null when the request got its
     *  terminal frame here (drained, rejected) or the client left. */
    std::shared_ptr<Job> admit(int fd, const RunRequest &request);
    /** Stream @p job's progress to @p fd, then its terminal frame. */
    void streamReply(int fd, const std::shared_ptr<Job> &job);
    void handleStats(int fd);
    void runnerLoop(unsigned laneIndex);
    /** Run one pass on lane @p laneIndex (in-process with lanes ==
     *  0), streaming its progress into the job. */
    LaneJobOutcome runPass(const Task &task, unsigned laneIndex);
    /** The job's transition after @p task's pass: finish it, drain
     *  it, fan it out, re-queue or abandon a shard, or enqueue the
     *  final pass. */
    void advance(const Task &task, const LaneJobOutcome &outcome);
    /** Move the job to Done (or Drained, when a drain won) after its
     *  last pass: stamp serve telemetry, retire its journals, count
     *  it. */
    void finishJob(const Task &task, const LaneJobOutcome &outcome);
    /** Move the job to Drained once, counting it. */
    void markJobDrained(const std::shared_ptr<Job> &job);
    /** Queue @p tasks (all of one job), or drain the job when a
     *  drain already won the queue; false in that case. */
    bool pushOrDrain(const std::vector<Task> &tasks);
    /** Push the job's first pass: a Probe for a shardable job, else
     *  its Final pass; caller holds _queueMutex. */
    void enqueueJobLocked(const std::shared_ptr<Job> &job);
    /** Distinct jobs holding a queued task, after those holding a
     *  runner when @p withRunning; caller holds _queueMutex. */
    std::vector<std::shared_ptr<Job>> jobsLocked(bool withRunning) const;
    /** Transition Queued -> Running once, stamping queue/start
     *  times; later tasks of the same job are no-ops. */
    void markJobStarted(const std::shared_ptr<Job> &job);
    std::string checkpointPathFor(const RunRequest &request) const;
    std::string shardCheckpointPathFor(const RunRequest &request,
                                       unsigned shardIndex,
                                       unsigned shardCount) const;
    /** Remove every shard journal of @p request (any shard count). */
    void removeShardCheckpoints(const RunRequest &request) const;
    void persistPendingLocked();
    void restorePending();
    void logLine(const char *format, ...) const;

    ServerConfig _config;
    std::string _socketPath;
    int _listenFd = -1;
    /** Self-pipe that wakes the accept loop's poll() on drain. */
    int _drainPipe[2] = {-1, -1};

    std::thread _acceptThread;
    /** One per lane; a single thread with lanes == 0. */
    std::vector<std::thread> _runnerThreads;

    /** Lane pool; null with lanes == 0 (in-process execution). */
    std::unique_ptr<LaneSupervisor> _supervisor;

    mutable std::mutex _connMutex;
    std::list<std::shared_ptr<Connection>> _connections;

    /** Guards the queue, _runningJobs, _draining and _nextJobId. */
    mutable std::mutex _queueMutex;
    std::condition_variable _queueCv;
    /** Pending tasks; a sharded job contributes several. */
    std::vector<Task> _queue;
    /** Job each runner thread is executing (index = lane); shards of
     *  one job can occupy several slots at once. */
    std::vector<std::shared_ptr<Job>> _runningJobs;
    bool _draining = false;
    std::uint64_t _nextJobId = 1;

    /** The drain flag handed to every job's RunSession::abort. */
    std::atomic<bool> _drainFlag{false};

    mutable std::mutex _statsMutex;
    ServerStats _stats;

    std::atomic<bool> _started{false};
    std::atomic<bool> _stopped{false};
};

} // namespace ibp

#endif // IBP_SERVE_SERVER_HH
