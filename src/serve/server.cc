#include "serve/server.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "robust/atomic_file.hh"
#include "robust/fault_injection.hh"
#include "sim/result_store.hh"

namespace ibp {

namespace {

Json
errorFrame(const std::string &message)
{
    Json json = Json::object();
    json.set("type", "error");
    json.set("message", message);
    return json;
}

Json
drainedFrame()
{
    Json json = Json::object();
    json.set("type", "drained");
    return json;
}

double
secondsSince(std::chrono::steady_clock::time_point then)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - then)
        .count();
}

} // namespace

SweepServer::SweepServer(ServerConfig config)
    : _config(std::move(config)),
      _socketPath(daemonSocketPath(_config.socketPath))
{
}

SweepServer::~SweepServer()
{
    if (_started.load() && !_stopped.load()) {
        requestDrain();
        waitStopped();
    }
}

Result<void>
SweepServer::start()
{
    std::error_code ec;
    std::filesystem::create_directories(_config.stateDir, ec);
    if (ec) {
        return RunError::permanent("cannot create state dir '" +
                                   _config.stateDir +
                                   "': " + ec.message());
    }
    // Fork the lane pool FIRST: before the listen socket, the drain
    // pipe and our own threads exist, so the initial lanes inherit
    // as little as possible and fork from the quietest process this
    // server will ever be.
    if (_config.lanes > 0) {
        SupervisorConfig lanes;
        lanes.lanes = _config.lanes;
        lanes.cellCeilingSeconds = _config.cellCeilingSeconds;
        lanes.jobCeilingSeconds = _config.jobCeilingSeconds;
        lanes.heartbeatTimeoutSeconds =
            _config.heartbeatTimeoutSeconds;
        lanes.maxRetriesWithoutProgress = _config.laneMaxRetries;
        lanes.retryBackoffSeconds = _config.laneRetryBackoffSeconds;
        lanes.echo = _config.echo;
        _supervisor = std::make_unique<LaneSupervisor>(lanes);
        const auto started = _supervisor->start();
        if (!started.ok()) {
            _supervisor.reset();
            return started;
        }
    }
    auto listening = listenDaemon(_socketPath);
    if (!listening.ok()) {
        if (_supervisor)
            _supervisor->shutdown();
        return listening.error();
    }
    _listenFd = listening.value();
    if (::pipe(_drainPipe) != 0) {
        const RunError error = RunError::permanent(
            std::string("pipe() failed: ") + std::strerror(errno));
        ::close(_listenFd);
        _listenFd = -1;
        if (_supervisor)
            _supervisor->shutdown();
        return error;
    }
    restorePending();
    _started.store(true);
    const unsigned runners =
        _config.lanes > 0 ? _config.lanes : 1u;
    _runningJobs.assign(runners, nullptr);
    _acceptThread = std::thread([this] { acceptLoop(); });
    for (unsigned lane = 0; lane < runners; ++lane) {
        _runnerThreads.emplace_back(
            [this, lane] { runnerLoop(lane); });
    }
    logLine("listening on %s (%zu experiments registered, %u %s)",
            _socketPath.c_str(), experimentSlugs().size(), runners,
            _config.lanes > 0 ? "lanes" : "in-process runner");
    return {};
}

void
SweepServer::acceptLoop()
{
    for (;;) {
        pollfd fds[2];
        fds[0].fd = _listenFd;
        fds[0].events = POLLIN;
        fds[0].revents = 0;
        fds[1].fd = _drainPipe[0];
        fds[1].events = POLLIN;
        fds[1].revents = 0;
        const int ready = ::poll(fds, 2, -1);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (fds[1].revents != 0)
            break; // drain requested
        if ((fds[0].revents & POLLIN) == 0)
            continue;
        const int fd = ::accept(_listenFd, nullptr, nullptr);
        if (fd < 0)
            continue;
        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        {
            std::lock_guard<std::mutex> lock(_connMutex);
            _connections.push_back(conn);
        }
        conn->thread =
            std::thread([this, conn] { serveConnection(conn); });
        reapConnections();
    }
}

void
SweepServer::reapConnections()
{
    std::lock_guard<std::mutex> lock(_connMutex);
    for (auto it = _connections.begin(); it != _connections.end();) {
        // finished is set only after the serving thread's last
        // statement touching shared state, so the join is immediate.
        if ((*it)->finished.load(std::memory_order_acquire)) {
            if ((*it)->thread.joinable())
                (*it)->thread.join();
            it = _connections.erase(it);
        } else {
            ++it;
        }
    }
}

void
SweepServer::serveConnection(const std::shared_ptr<Connection> &conn)
{
    const int fd = conn->fd;
    auto frame = readFrame(fd);
    if (frame.ok()) {
        const Json &message = frame.value();
        const std::string type = message.stringOr("type", "");
        if (type == "ping") {
            Json reply = Json::object();
            reply.set("type", "pong");
            reply.set("pid", static_cast<double>(::getpid()));
            reply.set("experiments", experimentSlugs().size());
            writeFrame(fd, reply);
        } else if (type == "stats") {
            handleStats(fd);
        } else if (type == "shutdown") {
            Json reply = Json::object();
            reply.set("type", "shutting_down");
            writeFrame(fd, reply);
            requestDrain();
        } else if (type == "run") {
            auto request = RunRequest::fromJson(message);
            if (!request.ok())
                writeFrame(fd,
                           errorFrame(request.error().describe()));
            else
                handleRun(fd, request.value());
        } else {
            writeFrame(fd, errorFrame("unknown request type '" +
                                      type + "'"));
        }
    }
    {
        std::lock_guard<std::mutex> lock(_connMutex);
        if (conn->fd >= 0) {
            ::close(conn->fd);
            conn->fd = -1;
        }
    }
    conn->finished.store(true, std::memory_order_release);
}

void
SweepServer::handleStats(int fd)
{
    const ServerStats counters = stats();
    Json reply = Json::object();
    reply.set("type", "stats");
    reply.set("jobs_accepted", counters.jobsAccepted);
    reply.set("requests_coalesced", counters.requestsCoalesced);
    reply.set("requests_rejected", counters.requestsRejected);
    reply.set("requests_incompatible",
              counters.requestsIncompatible);
    reply.set("jobs_completed", counters.jobsCompleted);
    reply.set("jobs_drained", counters.jobsDrained);
    reply.set("warm_hits", counters.warmHits);
    reply.set("jobs_restored", counters.jobsRestored);
    reply.set("lanes", _config.lanes);
    reply.set("lanes_forked", counters.lanesForked);
    reply.set("lane_crashes", counters.laneCrashes);
    reply.set("lane_kills", counters.laneKills);
    reply.set("jobs_retried", counters.jobsRetried);
    reply.set("jobs_store_served", counters.jobsStoreServed);
    reply.set("jobs_sharded", counters.jobsSharded);
    reply.set("shards_planned", counters.shardsPlanned);
    reply.set("shards_requeued", counters.shardsRequeued);
    reply.set("shards_abandoned", counters.shardsAbandoned);
    reply.set("shard_cells_stolen", counters.shardCellsStolen);
    reply.set("overlap_cells_coalesced",
              counters.overlapCellsCoalesced);
    {
        std::lock_guard<std::mutex> lock(_queueMutex);
        reply.set("queue_depth", jobsLocked(false).size());
        // "running": first busy runner's slug (compat with the
        // single-runner era); "running_jobs" lists all of them.
        Json running_jobs = Json::array();
        Json first;
        for (const auto &job : _runningJobs) {
            if (!job)
                continue;
            if (first.isNull())
                first = Json(job->request.slug);
            running_jobs.push(Json(job->request.slug));
        }
        reply.set("running", first);
        reply.set("running_jobs", std::move(running_jobs));
    }
    writeFrame(fd, reply);
}

void
SweepServer::handleRun(int fd, const RunRequest &request)
{
    const RunRequest mine = makeRunRequest(request.slug,
                                           request.quick);
    const std::string reason = request.incompatibilityWith(mine);
    if (!reason.empty()) {
        {
            std::lock_guard<std::mutex> lock(_statsMutex);
            ++_stats.requestsIncompatible;
        }
        logLine("refusing %s: %s", request.slug.c_str(),
                reason.c_str());
        Json reply = Json::object();
        reply.set("type", "incompatible");
        reply.set("reason", reason);
        writeFrame(fd, reply);
        return;
    }
    if (findExperiment(request.slug) == nullptr) {
        writeFrame(fd, errorFrame("unknown experiment '" +
                                  request.slug + "'"));
        return;
    }
    if (const std::shared_ptr<Job> job = admit(fd, request))
        streamReply(fd, job);
}

std::shared_ptr<SweepServer::Job>
SweepServer::admit(int fd, const RunRequest &request)
{
    std::shared_ptr<Job> job;
    bool coalesced = false;
    std::size_t queue_depth = 0;
    {
        std::lock_guard<std::mutex> lock(_queueMutex);
        if (_draining) {
            writeFrame(fd, drainedFrame());
            return nullptr;
        }
        // Coalesce onto an identical running or queued job. The
        // state check happens under the job's own mutex: a job that
        // just finished (Done under job->mutex, its runner slot not
        // yet cleared) must not gain a rider that missed its
        // artifact's serve record.
        const std::string signature = request.signature();
        for (const std::shared_ptr<Job> &candidate : jobsLocked(true)) {
            if (candidate->request.signature() != signature)
                continue;
            std::lock_guard<std::mutex> job_lock(candidate->mutex);
            if (candidate->state != JobState::Queued &&
                candidate->state != JobState::Running)
                continue;
            ++candidate->subscribers;
            ++candidate->coalesced;
            candidate->clientRejects += request.rejects;
            job = candidate;
            coalesced = true;
            break;
        }
        if (!coalesced) {
            if (jobsLocked(false).size() >= _config.maxQueueDepth) {
                {
                    std::lock_guard<std::mutex> stats_lock(
                        _statsMutex);
                    ++_stats.requestsRejected;
                }
                Json reply = Json::object();
                reply.set("type", "rejected");
                reply.set("retry_after_ms",
                          _config.retryAfterSeconds * 1000.0);
                writeFrame(fd, reply);
                return nullptr;
            }
            job = std::make_shared<Job>();
            job->id = _nextJobId++;
            job->request = request;
            job->subscribers = 1;
            job->clientRejects = request.rejects;
            job->enqueuedAt = std::chrono::steady_clock::now();
            enqueueJobLocked(job);
        }
        queue_depth = jobsLocked(false).size();
    }
    {
        std::lock_guard<std::mutex> lock(_statsMutex);
        if (coalesced)
            ++_stats.requestsCoalesced;
        else
            ++_stats.jobsAccepted;
    }
    logLine("%s job %llu: %s%s", coalesced ? "joined" : "queued",
            static_cast<unsigned long long>(job->id),
            request.slug.c_str(), request.quick ? " (quick)" : "");

    Json accepted = Json::object();
    accepted.set("type", "accepted");
    accepted.set("job", job->id);
    accepted.set("coalesced", Json(coalesced));
    accepted.set("queue_depth", queue_depth);
    if (!writeFrame(fd, accepted).ok())
        return nullptr;
    return job;
}

void
SweepServer::streamReply(int fd, const std::shared_ptr<Job> &job)
{
    // Stream progress until the job reaches a terminal state. The
    // socket write happens OUTSIDE job->mutex so a slow client can
    // never stall the pass reporting progress.
    std::size_t last_cells = 0;
    std::unique_lock<std::mutex> lock(job->mutex);
    for (;;) {
        job->cv.wait(lock, [&] {
            return job->state == JobState::Done ||
                   job->state == JobState::Drained ||
                   job->cellsDone != last_cells;
        });
        if (job->state == JobState::Done ||
            job->state == JobState::Drained)
            break;
        last_cells = job->cellsDone;
        lock.unlock();
        Json progress = Json::object();
        progress.set("type", "progress");
        progress.set("job", job->id);
        progress.set("cells", last_cells);
        if (!writeFrame(fd, progress).ok())
            return; // client went away; the job runs on
        lock.lock();
    }
    const JobState state = job->state;
    const ExperimentRunResult result = job->result;
    lock.unlock();

    if (state == JobState::Drained) {
        writeFrame(fd, drainedFrame());
        return;
    }
    if (result.exitCode == 1 || !result.artifact) {
        writeFrame(fd, errorFrame(result.error.empty()
                                      ? "experiment failed"
                                      : result.error));
        return;
    }
    Json reply = Json::object();
    reply.set("type", "artifact");
    reply.set("exit_code", result.exitCode);
    reply.set("restored_cells", result.restoredCells);
    reply.set("seconds", result.seconds);
    reply.set("artifact", result.artifact->toJson());
    writeFrame(fd, reply);
}

void
SweepServer::runnerLoop(unsigned lane_index)
{
    for (;;) {
        Task task;
        {
            std::unique_lock<std::mutex> lock(_queueMutex);
            _queueCv.wait(lock, [&] {
                return _draining || !_queue.empty();
            });
            if (_draining)
                break;
            // Highest priority first, then oldest job, then shard
            // order - so every lane converges on the same fan-out
            // instead of interleaving unrelated jobs.
            const auto better = [](const Task &a, const Task &b) {
                if (a.job->request.priority !=
                    b.job->request.priority)
                    return a.job->request.priority >
                           b.job->request.priority;
                if (a.job->id != b.job->id)
                    return a.job->id < b.job->id;
                return a.shardIndex < b.shardIndex;
            };
            auto best = _queue.begin();
            for (auto it = std::next(best); it != _queue.end();
                 ++it) {
                if (better(*it, *best))
                    best = it;
            }
            task = *best;
            _queue.erase(best);
            _runningJobs[lane_index] = task.job;
        }
        markJobStarted(task.job);
        // The runner slot stays held until the transition is made, so
        // a concurrent drain persists the job.
        advance(task, runPass(task, lane_index));
        {
            std::lock_guard<std::mutex> lock(_queueMutex);
            _runningJobs[lane_index].reset();
        }
    }
}

LaneJobOutcome
SweepServer::runPass(const Task &task, unsigned lane_index)
{
    const std::shared_ptr<Job> &job = task.job;
    const RunRequest &request = job->request;
    // The Probe keeps no journal: it has nothing to resume, and its
    // records would restore served cells into the final pass without
    // their counters. After a fan-out the Final pass serves every
    // stored cell and simulates any straggler of a drained, abandoned
    // or failed shard, so shard failures degrade to slowness, never
    // to a wrong or partial artifact. Claims make concurrent lanes
    // (shards, overlapping jobs) compute each cell once; the
    // in-process runner runs one job at a time.
    LaneShard pass;
    pass.storeOnly = task.kind == PassKind::Probe;
    pass.cellClaims = _supervisor != nullptr;
    std::string journal;
    std::string label = "job " + std::to_string(job->id);
    const char *verb = "running";
    {
        std::lock_guard<std::mutex> lock(job->mutex);
        if (task.kind == PassKind::Shard) {
            pass.index = task.shardIndex;
            pass.count = job->shardCount;
            pass.steal = true;
            ++job->shardDispatches[task.shardIndex];
            journal = shardCheckpointPathFor(request, pass.index,
                                             pass.count);
            label += " shard " + std::to_string(pass.index) + "/" +
                     std::to_string(pass.count);
        } else if (task.kind == PassKind::Final) {
            journal = checkpointPathFor(request);
            if (job->shardCount > 0)
                verb = "merging";
        } else {
            verb = "serving from the store";
        }
    }
    logLine("%s %s: %s%s", verb, label.c_str(), request.slug.c_str(),
            request.quick ? " (quick)" : "");

    // Progress counts restart with each lane incarnation and shards
    // report out of order, so the streamed count is the sum of
    // per-shard monotonic maxima (a Probe or Final pass reports its
    // own count) and only ever moves forward.
    const auto on_progress = [&task, &job](std::size_t cells) {
        std::lock_guard<std::mutex> lock(job->mutex);
        std::size_t total = cells;
        if (task.kind == PassKind::Shard) {
            std::size_t &mine = job->shardCells[task.shardIndex];
            if (cells <= mine)
                return;
            mine = cells;
            total = 0;
            for (const std::size_t done : job->shardCells)
                total += done;
        }
        if (total > job->cellsDone) {
            job->cellsDone = total;
            job->cv.notify_all();
        }
    };
    if (_supervisor) {
        return _supervisor->runJob(lane_index, request, journal,
                                   on_progress, pass);
    }

    LaneJobOutcome outcome;
    const ExperimentDef *def = findExperiment(request.slug);
    if (def == nullptr) {
        outcome.result.exitCode = 1;
        outcome.result.error =
            "experiment '" + request.slug + "' vanished";
        return outcome;
    }
    ExperimentOptions options;
    options.quick = request.quick;
    options.echo = false;
    options.checkpointPath = journal;
    options.abort = &_drainFlag;
    options.shardIndex = pass.index;
    options.shardCount = pass.count;
    options.shardSteal = pass.steal;
    options.cellClaims = pass.cellClaims;
    options.storeOnly = pass.storeOnly;
    std::atomic<std::size_t> finished{0};
    options.onCellFinished = [&] {
        on_progress(finished.fetch_add(1, std::memory_order_relaxed) +
                    1);
    };
    outcome.result = runExperimentInProcess(*def, options);
    return outcome;
}

void
SweepServer::advance(const Task &task, const LaneJobOutcome &outcome)
{
    const std::shared_ptr<Job> &job = task.job;
    const ExperimentRunResult &result = outcome.result;
    const bool missed =
        task.kind == PassKind::Probe && result.storeMissed;
    if (task.kind != PassKind::Shard && !missed) {
        finishJob(task, outcome);
        return;
    }

    enum class Step { Drain, FanOut, Requeue, Abandon, ShardDone };
    Step step;
    std::vector<Task> next;
    unsigned shard_count = 0;
    unsigned dispatches = 0;
    {
        std::lock_guard<std::mutex> lock(job->mutex);
        // A pass before the final one decides whether the job is
        // warm: the final pass finds every trace in the cache these
        // runs filled.
        if (!result.artifact ||
            result.artifact->metrics.tracesGenerated() > 0)
            job->tracesGenerated = true;
        if (outcome.drained ||
            _drainFlag.load(std::memory_order_acquire)) {
            step = Step::Drain;
        } else if (missed) {
            // The probe's lane time counts as merge time: it
            // acquired every trace before it stopped.
            step = Step::FanOut;
            job->shardServe.mergeSeconds += result.seconds;
            job->shardCount = _config.lanes;
            job->shardCells.assign(job->shardCount, 0);
            job->shardDispatches.assign(job->shardCount, 0);
            job->fanoutStartedAt = std::chrono::steady_clock::now();
            for (unsigned k = 0; k < job->shardCount; ++k)
                next.push_back({job, PassKind::Shard, k});
        } else if (result.exitCode == 1 &&
                   job->shardDispatches[task.shardIndex] <=
                       _config.shardRequeueBudget) {
            // The lane pool gave up on this shard (crash retries
            // exhausted, or a hard failure). Its journal holds
            // whatever finished, so a re-dispatch reruns only the
            // remaining cells.
            step = Step::Requeue;
            ++job->shardServe.requeued;
            next.push_back(task);
        } else {
            // Finished, or abandoned past its budget: the final pass
            // then simulates the shard's unfinished cells.
            if (result.exitCode == 1) {
                step = Step::Abandon;
                ++job->shardServe.abandoned;
            } else {
                step = Step::ShardDone;
                if (result.artifact) {
                    const ResultStoreStats cells =
                        result.artifact->metrics.resultStore();
                    job->shardServe.stolenCells += cells.stolen;
                    job->shardServe.overlapCoalesced +=
                        cells.claimServed;
                }
            }
            if (++job->shardsTerminal == job->shardCount) {
                job->shardServe.fanoutSeconds =
                    secondsSince(job->fanoutStartedAt);
                next.push_back({job, PassKind::Final, 0});
            }
        }
        shard_count = job->shardCount;
        if (step != Step::Drain && step != Step::FanOut)
            dispatches = job->shardDispatches[task.shardIndex];
    }

    if (step == Step::Drain) {
        markJobDrained(job);
        return;
    }
    const bool queued = next.empty() || pushOrDrain(next);
    {
        std::lock_guard<std::mutex> lock(_statsMutex);
        _stats.shardsRequeued += step == Step::Requeue;
        _stats.shardsAbandoned += step == Step::Abandon;
        if (step == Step::FanOut && queued) {
            ++_stats.jobsSharded;
            _stats.shardsPlanned += shard_count;
        }
    }
    if (!queued)
        return;
    const auto id = static_cast<unsigned long long>(job->id);
    if (step == Step::FanOut) {
        logLine("job %llu missed the store; sharding x%u", id,
                shard_count);
        return;
    }
    logLine("job %llu shard %u/%u %s (dispatch %u)", id,
            task.shardIndex, shard_count,
            step == Step::Requeue   ? "re-queued"
            : step == Step::Abandon ? "abandoned"
                                    : "done",
            dispatches);
}

void
SweepServer::finishJob(const Task &task, const LaneJobOutcome &outcome)
{
    const std::shared_ptr<Job> &job = task.job;
    const bool from_store = task.kind == PassKind::Probe;
    ExperimentRunResult result = outcome.result;
    bool drained = false;
    bool warm = false;
    ShardServeStats shard;
    unsigned shard_count = 0;
    std::size_t cells = 0;
    {
        // One critical section decides the terminal state, reads the
        // final subscriber counts, and stamps the serve telemetry: a
        // late coalescing attach either lands before this (and is
        // counted) or observes a terminal state (and starts a fresh
        // job). The drain flag is read here too, so persistPending
        // (which inspects state under this mutex) and this section
        // agree on whether the job drained.
        std::lock_guard<std::mutex> lock(job->mutex);
        drained = outcome.drained ||
                  _drainFlag.load(std::memory_order_acquire);
        if (!drained && result.artifact) {
            // Only a job that went through the probe has a shard
            // block: the fan-out telemetry plus the lane time of the
            // probe and the final pass.
            if (from_store || job->shardCount > 0) {
                job->shardServe.planned = job->shardCount;
                job->shardServe.mergeSeconds += result.seconds;
                job->shardServe.laneCells.assign(
                    job->shardCells.begin(), job->shardCells.end());
            }
            const RunMetrics &metrics = result.artifact->metrics;
            ServeMetrics serve;
            serve.requests = job->subscribers;
            serve.coalesced = job->coalesced;
            serve.admissionRejects = job->clientRejects;
            serve.queueSeconds = job->queueSeconds;
            serve.jobSeconds = secondsSince(job->startedAt);
            serve.warm = !job->tracesGenerated &&
                         metrics.hasTraceSource() &&
                         metrics.tracesGenerated() == 0 &&
                         metrics.traceCacheHits() > 0;
            serve.shard = job->shardServe;
            result.artifact->metrics.recordServe(serve);
            warm = serve.warm;
            shard = job->shardServe;
        }
        if (!drained) {
            job->result = result;
            job->state = JobState::Done;
            job->cv.notify_all();
        }
        shard_count = job->shardCount;
        cells = job->cellsDone;
    }
    if (drained) {
        markJobDrained(job);
        return;
    }

    if (result.exitCode == 0) {
        // A clean completion retires the job's journals; a drained or
        // partial run keeps them so a restart resumes from them.
        std::error_code ec;
        std::filesystem::remove(checkpointPathFor(job->request), ec);
        removeShardCheckpoints(job->request);
    }
    {
        std::lock_guard<std::mutex> lock(_statsMutex);
        ++_stats.jobsCompleted;
        if (warm)
            ++_stats.warmHits;
        if (from_store && result.artifact)
            ++_stats.jobsStoreServed;
        _stats.shardCellsStolen += shard.stolenCells;
        _stats.overlapCellsCoalesced += shard.overlapCoalesced;
    }
    const std::string how =
        from_store        ? ", from the store"
        : shard_count > 0 ? ", sharded x" + std::to_string(shard_count)
                          : "";
    logLine("job %llu finished (%zu cells%s%s)",
            static_cast<unsigned long long>(job->id), cells,
            how.c_str(), warm ? ", warm" : "");
}

void
SweepServer::markJobDrained(const std::shared_ptr<Job> &job)
{
    std::size_t cells = 0;
    {
        std::lock_guard<std::mutex> lock(job->mutex);
        if (job->state == JobState::Drained)
            return;
        job->state = JobState::Drained;
        job->cv.notify_all();
        cells = job->cellsDone;
    }
    {
        std::lock_guard<std::mutex> stats_lock(_statsMutex);
        ++_stats.jobsDrained;
    }
    logLine("job %llu drained (%zu cells)",
            static_cast<unsigned long long>(job->id), cells);
}

bool
SweepServer::pushOrDrain(const std::vector<Task> &tasks)
{
    {
        std::lock_guard<std::mutex> lock(_queueMutex);
        if (!_draining) {
            _queue.insert(_queue.end(), tasks.begin(), tasks.end());
            _queueCv.notify_all();
            return true;
        }
    }
    // Drain won the race for the queue: the job was already persisted
    // (this runner still holds its slot), so it resumes after restart
    // instead of running on.
    markJobDrained(tasks.front().job);
    return false;
}

void
SweepServer::enqueueJobLocked(const std::shared_ptr<Job> &job)
{
    // Shard when the grid can be reassembled from the store: a pool
    // of at least two lanes, a shardable experiment (every cell
    // store-keyed) and an armed result store. Fault injection
    // disarms the store inside SuiteRunner, so a fan-out would just
    // repeat the whole grid per lane - don't plan one.
    const ExperimentDef *def = findExperiment(job->request.slug);
    const bool shardable = _config.lanes >= 2 && def != nullptr &&
                           def->shardable &&
                           ResultStore::global() != nullptr &&
                           !FaultInjector::global().armed();
    _queue.push_back(
        {job, shardable ? PassKind::Probe : PassKind::Final, 0});
    _queueCv.notify_one();
}

std::vector<std::shared_ptr<SweepServer::Job>>
SweepServer::jobsLocked(bool with_running) const
{
    std::vector<std::shared_ptr<Job>> jobs;
    const auto add = [&jobs](const std::shared_ptr<Job> &job) {
        if (job && std::find(jobs.begin(), jobs.end(), job) == jobs.end())
            jobs.push_back(job);
    };
    if (with_running) {
        for (const auto &job : _runningJobs)
            add(job);
    }
    for (const Task &task : _queue)
        add(task.job);
    return jobs;
}

void
SweepServer::markJobStarted(const std::shared_ptr<Job> &job)
{
    std::lock_guard<std::mutex> lock(job->mutex);
    if (job->state != JobState::Queued)
        return;
    job->state = JobState::Running;
    job->startedAt = std::chrono::steady_clock::now();
    job->queueSeconds = std::chrono::duration<double>(
                            job->startedAt - job->enqueuedAt)
                            .count();
}

void
SweepServer::requestDrain()
{
    if (_drainFlag.exchange(true, std::memory_order_acq_rel))
        return;
    logLine("drain requested");
    {
        std::lock_guard<std::mutex> lock(_queueMutex);
        _draining = true;
        persistPendingLocked();
        // Drain every job still holding queue tasks: a sharded job
        // with a shard mid-flight on a lane is drained here too - the
        // lane reports that shard drained shortly, and
        // markJobDrained() counts the job once.
        for (const std::shared_ptr<Job> &job : jobsLocked(false))
            markJobDrained(job);
        _queue.clear();
    }
    // Lanes stop at their next cell boundary and report their jobs
    // drained; their runner threads then observe _draining and exit.
    if (_supervisor)
        _supervisor->requestDrain();
    _queueCv.notify_all();
    if (_drainPipe[1] >= 0) {
        const char byte = 1;
        [[maybe_unused]] const ssize_t n =
            ::write(_drainPipe[1], &byte, 1);
    }
    // Unblock connection threads parked in readFrame. Only the read
    // side: subscribers of the aborting run still need their
    // "drained" frame written.
    {
        std::lock_guard<std::mutex> lock(_connMutex);
        for (const auto &conn : _connections) {
            if (conn->fd >= 0)
                ::shutdown(conn->fd, SHUT_RD);
        }
    }
}

void
SweepServer::waitStopped()
{
    if (!_started.load())
        return;
    if (_acceptThread.joinable())
        _acceptThread.join();
    for (std::thread &runner : _runnerThreads) {
        if (runner.joinable())
            runner.join();
    }
    _runnerThreads.clear();
    // Every job result has been consumed by now; the lanes are idle
    // and EOF on their sockets is their exit signal.
    if (_supervisor)
        _supervisor->shutdown();
    // Connection threads exit once the runner has pushed every job
    // to a terminal state. Copy the list out: their epilogues take
    // _connMutex to close their fd.
    for (;;) {
        std::vector<std::shared_ptr<Connection>> remaining;
        {
            std::lock_guard<std::mutex> lock(_connMutex);
            remaining.assign(_connections.begin(),
                             _connections.end());
            _connections.clear();
        }
        if (remaining.empty())
            break;
        for (const auto &conn : remaining) {
            if (conn->thread.joinable())
                conn->thread.join();
        }
    }
    if (_listenFd >= 0) {
        ::close(_listenFd);
        _listenFd = -1;
    }
    for (int &fd : _drainPipe) {
        if (fd >= 0) {
            ::close(fd);
            fd = -1;
        }
    }
    ::unlink(_socketPath.c_str());
    _stopped.store(true);
    logLine("stopped");
}

ServerStats
SweepServer::stats() const
{
    ServerStats out;
    {
        std::lock_guard<std::mutex> lock(_statsMutex);
        out = _stats;
    }
    if (_supervisor) {
        const LaneStats lanes = _supervisor->stats();
        out.lanesForked = lanes.lanesForked;
        out.laneCrashes = lanes.laneCrashes;
        out.laneKills = lanes.laneKills;
        out.jobsRetried = lanes.jobsRetried;
    }
    return out;
}

std::vector<LaneView>
SweepServer::laneViews() const
{
    if (!_supervisor)
        return {};
    return _supervisor->laneViews();
}

std::string
SweepServer::checkpointPathFor(const RunRequest &request) const
{
    return _config.stateDir + "/" + request.slug +
           (request.quick ? "-quick" : "") + ".ckpt";
}

std::string
SweepServer::shardCheckpointPathFor(const RunRequest &request,
                                    unsigned shard_index,
                                    unsigned shard_count) const
{
    // The shard count is part of the name: a restart that re-plans
    // against a different lane count starts fresh journals, and the
    // cells the old plan finished are still served by the store.
    return _config.stateDir + "/" + request.slug +
           (request.quick ? "-quick" : "") + ".shard" +
           std::to_string(shard_index) + "of" +
           std::to_string(shard_count) + ".ckpt";
}

void
SweepServer::removeShardCheckpoints(const RunRequest &request) const
{
    const std::string prefix =
        request.slug + (request.quick ? "-quick" : "") + ".shard";
    std::error_code ec;
    std::filesystem::directory_iterator it(_config.stateDir, ec);
    if (ec)
        return;
    for (const auto &entry : it) {
        const std::string name = entry.path().filename().string();
        if (name.rfind(prefix, 0) == 0 &&
            name.size() > prefix.size() + 5 &&
            name.compare(name.size() - 5, 5, ".ckpt") == 0) {
            std::error_code remove_ec;
            std::filesystem::remove(entry.path(), remove_ec);
        }
    }
}

void
SweepServer::persistPendingLocked()
{
    const std::string path = _config.stateDir + "/pending.json";
    Json jobs = Json::array();
    // ONE entry per job, however many of its passes are queued or in
    // flight: the entry is just the request, and the restarted
    // daemon re-plans shards against its then-current lane count.
    // The union of the job's unfinished cells needs no persisting -
    // finished cells live in the result store (and the journals),
    // so the re-planned run serves them and simulates only the rest.
    for (const std::shared_ptr<Job> &job : jobsLocked(true)) {
        std::lock_guard<std::mutex> job_lock(job->mutex);
        if (job->state != JobState::Done &&
            job->state != JobState::Drained)
            jobs.push(job->request.toJson());
    }
    if (jobs.size() == 0) {
        std::error_code ec;
        std::filesystem::remove(path, ec);
        return;
    }
    const std::size_t count = jobs.size();
    Json pending = Json::object();
    pending.set("version", 1);
    pending.set("jobs", std::move(jobs));
    const auto written = writeFileAtomic(path, pending.dump(2));
    if (written.ok()) {
        logLine("persisted %zu pending request(s) to %s", count,
                path.c_str());
    } else {
        logLine("WARNING: cannot persist pending requests: %s",
                written.error().describe().c_str());
    }
}

void
SweepServer::restorePending()
{
    const std::string path = _config.stateDir + "/pending.json";
    std::ifstream in(path);
    if (!in)
        return;
    std::ostringstream text;
    text << in.rdbuf();
    in.close();

    // Validate BEFORE touching the file: a corrupt or truncated
    // pending.json (daemon died mid-write of a non-atomic editor
    // save, disk full, ...) is quarantined aside for forensics, and
    // startup proceeds - a bad state file must never brick the
    // daemon or be silently destroyed.
    const auto quarantine = [&](const std::string &why) {
        const std::string aside = path + ".corrupt";
        std::error_code rename_ec;
        std::filesystem::rename(path, aside, rename_ec);
        if (rename_ec) {
            std::error_code remove_ec;
            std::filesystem::remove(path, remove_ec);
            logLine("WARNING: dropping malformed %s (%s); "
                    "quarantine failed: %s",
                    path.c_str(), why.c_str(),
                    rename_ec.message().c_str());
        } else {
            logLine("WARNING: quarantined malformed %s to %s (%s)",
                    path.c_str(), aside.c_str(), why.c_str());
        }
    };

    Json pending;
    try {
        pending = Json::parse(text.str());
    } catch (const std::exception &error) {
        quarantine(error.what());
        return;
    }
    if (!pending.contains("jobs") || !pending.at("jobs").isArray()) {
        quarantine("no jobs array");
        return;
    }
    std::error_code ec;
    std::filesystem::remove(path, ec);
    const Json &jobs = pending.at("jobs");
    std::size_t restored = 0;
    std::lock_guard<std::mutex> lock(_queueMutex);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        auto request = RunRequest::fromJson(jobs.at(i));
        if (!request.ok()) {
            logLine("WARNING: dropping pending request: %s",
                    request.error().describe().c_str());
            continue;
        }
        if (findExperiment(request.value().slug) == nullptr) {
            logLine("WARNING: dropping pending request for unknown "
                    "experiment '%s'",
                    request.value().slug.c_str());
            continue;
        }
        auto job = std::make_shared<Job>();
        job->id = _nextJobId++;
        job->request = request.value();
        job->subscribers = 0; // original clients are long gone
        job->enqueuedAt = std::chrono::steady_clock::now();
        // Re-plans the shard fan-out against the CURRENT lane
        // count; a drain under the old plan left its cells in the
        // store, so only unfinished work reruns.
        enqueueJobLocked(job);
        ++restored;
    }
    if (restored > 0) {
        std::lock_guard<std::mutex> stats_lock(_statsMutex);
        _stats.jobsRestored += restored;
        logLine("restored %zu pending request(s); resuming from "
                "their journals",
                restored);
    }
}

void
SweepServer::logLine(const char *format, ...) const
{
    if (!_config.echo)
        return;
    std::fputs("[ibpd] ", stdout);
    va_list args;
    va_start(args, format);
    std::vfprintf(stdout, format, args);
    va_end(args);
    std::fputc('\n', stdout);
    std::fflush(stdout);
}

} // namespace ibp
