#include "serve/supervisor.hh"

#include <cerrno>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <functional>
#include <thread>

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "serve/worker.hh"

namespace ibp {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point then)
{
    return std::chrono::duration<double>(Clock::now() - then).count();
}

/** Human-readable death cause from a waitpid status. */
std::string
describeExit(int status)
{
    if (WIFSIGNALED(status)) {
        const int sig = WTERMSIG(status);
        const char *name = ::strsignal(sig);
        return "killed by signal " + std::to_string(sig) + " (" +
               (name ? name : "?") + ")";
    }
    if (WIFEXITED(status))
        return "exited with status " +
               std::to_string(WEXITSTATUS(status));
    return "died with wait status " + std::to_string(status);
}

/** What ended one monitored dispatch. */
enum class MonitorEnd
{
    Result,          // lane sent the job's result frame
    LaneDied,        // EOF/read error: the lane is gone
    HeartbeatLost,   // no frame at all for too long
    CellDeadline,    // no cell resolved within the ceiling
    JobDeadline,     // whole job ran past its ceiling
    DispatchFailed,  // could not even write the job frame
};

/** A failed job outcome carrying @p message. */
LaneJobOutcome
failedOutcome(const std::string &message)
{
    LaneJobOutcome outcome;
    outcome.result.exitCode = 1;
    outcome.result.error = message;
    return outcome;
}

/** The lane frame dispatching @p request with @p shard's pass. */
Json
jobFrame(const RunRequest &request, const std::string &checkpoint_path,
         const LaneShard &shard)
{
    Json job = Json::object();
    job.set("type", "job");
    job.set("checkpoint", checkpoint_path);
    job.set("request", request.toJson());
    // Shard fields ride on the lane frame, not the client request:
    // sharding is a daemon scheduling decision and must not perturb
    // RunRequest::signature() coalescing.
    if (shard.count > 1) {
        job.set("shard_index", static_cast<double>(shard.index));
        job.set("shard_count", static_cast<double>(shard.count));
        if (shard.steal)
            job.set("shard_steal", true);
    }
    if (shard.cellClaims)
        job.set("cell_claims", true);
    if (shard.storeOnly)
        job.set("store_only", true);
    return job;
}

/** How one monitored dispatch ended. */
struct Monitored
{
    MonitorEnd end = MonitorEnd::DispatchFailed;
    /** The lane's result frame when end is Result. */
    Json resultFrame;
    /** Cells this lane incarnation reported resolved. */
    std::size_t cells = 0;
};

/**
 * Read lane socket @p fd until the dispatched job's result frame
 * arrives, the lane dies, or a deadline of @p config passes;
 * progress frames go to @p on_progress.
 */
Monitored
monitorDispatch(int fd, const SupervisorConfig &config,
                Clock::time_point job_start,
                const std::function<void(std::size_t)> &on_progress)
{
    Monitored monitored;
    auto last_frame = Clock::now();
    auto last_progress = last_frame;
    // Re-measures the clocks, so a poll that timed out a hair early
    // (ms rounding) reports nothing and loops.
    const auto expired = [&]() -> bool {
        if (config.jobCeilingSeconds > 0.0 &&
            secondsSince(job_start) >= config.jobCeilingSeconds) {
            monitored.end = MonitorEnd::JobDeadline;
            return true;
        }
        if (config.cellCeilingSeconds > 0.0 &&
            secondsSince(last_progress) >= config.cellCeilingSeconds) {
            monitored.end = MonitorEnd::CellDeadline;
            return true;
        }
        if (config.heartbeatTimeoutSeconds > 0.0 &&
            secondsSince(last_frame) >=
                config.heartbeatTimeoutSeconds) {
            monitored.end = MonitorEnd::HeartbeatLost;
            return true;
        }
        return false;
    };

    for (;;) {
        // The nearest of three deadlines bounds the poll; -1 blocks
        // forever when every ceiling is disabled.
        double wait = -1.0;
        const auto consider = [&wait](double ceiling, double elapsed) {
            if (ceiling <= 0.0)
                return;
            // Clamp: negative would read as "no deadline".
            const double left =
                ceiling > elapsed ? ceiling - elapsed : 0.0;
            if (wait < 0.0 || left < wait)
                wait = left;
        };
        consider(config.heartbeatTimeoutSeconds,
                 secondsSince(last_frame));
        consider(config.cellCeilingSeconds, secondsSince(last_progress));
        consider(config.jobCeilingSeconds, secondsSince(job_start));

        if (wait >= 0.0 && wait <= 0.0001) {
            if (expired())
                return monitored;
            continue;
        }
        pollfd poller;
        poller.fd = fd;
        poller.events = POLLIN;
        poller.revents = 0;
        const int timeout_ms =
            wait < 0.0 ? -1 : static_cast<int>(wait * 1000.0) + 1;
        const int ready = ::poll(&poller, 1, timeout_ms);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            monitored.end = MonitorEnd::LaneDied;
            return monitored;
        }
        if (ready == 0) {
            if (expired())
                return monitored;
            continue;
        }
        auto frame = readFrame(fd);
        if (!frame.ok()) {
            monitored.end = MonitorEnd::LaneDied;
            return monitored;
        }
        last_frame = Clock::now();
        const std::string type = frame.value().stringOr("type", "");
        if (type == "progress") {
            last_progress = last_frame;
            monitored.cells = static_cast<std::size_t>(
                frame.value().numberOr("cells", 0));
            if (on_progress)
                on_progress(monitored.cells);
        } else if (type == "result") {
            monitored.resultFrame = std::move(frame).value();
            monitored.end = MonitorEnd::Result;
            return monitored;
        }
        // "heartbeat" and unknown types only refresh last_frame.
    }
}

/** The outcome a lane's result frame reports. */
LaneJobOutcome
decodeResult(const Json &frame)
{
    LaneJobOutcome outcome;
    outcome.drained =
        frame.contains("drained") && frame.at("drained").asBool();
    outcome.result.exitCode =
        static_cast<int>(frame.numberOr("exit_code", 1));
    outcome.result.restoredCells = static_cast<std::size_t>(
        frame.numberOr("restored_cells", 0));
    outcome.result.seconds = frame.numberOr("seconds", 0.0);
    outcome.result.error = frame.stringOr("error", "");
    outcome.result.storeMissed = frame.contains("store_missed") &&
                                 frame.at("store_missed").asBool();
    if (frame.contains("artifact")) {
        try {
            outcome.result.artifact = std::make_shared<RunArtifact>(
                RunArtifact::fromJson(frame.at("artifact")));
        } catch (const std::exception &error) {
            return failedOutcome(
                std::string("lane returned a malformed artifact: ") +
                error.what());
        }
    }
    return outcome;
}

} // namespace

LaneSupervisor::LaneSupervisor(SupervisorConfig config)
    : _config(config)
{
    if (_config.lanes == 0)
        _config.lanes = 1;
    _lanes.reserve(_config.lanes);
    for (unsigned i = 0; i < _config.lanes; ++i)
        _lanes.push_back(std::make_unique<Lane>());
}

LaneSupervisor::~LaneSupervisor() { shutdown(); }

void
LaneSupervisor::logLine(const char *format, ...) const
{
    if (!_config.echo)
        return;
    std::va_list args;
    va_start(args, format);
    std::printf("[ibpd] ");
    std::vprintf(format, args);
    std::printf("\n");
    std::fflush(stdout);
    va_end(args);
}

Result<void>
LaneSupervisor::start()
{
    for (auto &lane : _lanes) {
        const auto spawned = respawnLane(*lane);
        if (!spawned.ok()) {
            shutdown();
            return spawned;
        }
    }
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _started = true;
    }
    logLine("lane supervisor up: %u lane%s", _config.lanes,
            _config.lanes == 1 ? "" : "s");
    return {};
}

Result<void>
LaneSupervisor::respawnLane(Lane &lane)
{
    auto spawned = spawnWorkerLane();
    if (!spawned.ok())
        return spawned.error();
    {
        std::lock_guard<std::mutex> guard(_mutex);
        std::lock_guard<std::mutex> write_guard(lane.writeMutex);
        lane.pid = spawned.value().pid;
        lane.fd = spawned.value().fd;
        ++_stats.lanesForked;
    }
    logLine("lane %d forked", static_cast<int>(lane.pid));
    return {};
}

void
LaneSupervisor::reapLane(Lane &lane, bool kill)
{
    if (lane.pid < 0)
        return;
    if (kill)
        ::kill(lane.pid, SIGKILL);
    int status = 0;
    pid_t reaped;
    do {
        reaped = ::waitpid(lane.pid, &status, 0);
    } while (reaped < 0 && errno == EINTR);
    if (reaped == lane.pid)
        logLine("lane %d reaped: %s", static_cast<int>(lane.pid),
                describeExit(status).c_str());
    std::lock_guard<std::mutex> guard(_mutex);
    std::lock_guard<std::mutex> write_guard(lane.writeMutex);
    if (lane.fd >= 0)
        ::close(lane.fd);
    lane.fd = -1;
    lane.pid = -1;
}

LaneJobOutcome
LaneSupervisor::runJob(
    unsigned lane_index, const RunRequest &request,
    const std::string &checkpoint_path,
    const std::function<void(std::size_t)> &on_progress,
    const LaneShard &shard)
{
    Lane &lane = *_lanes.at(lane_index);
    const Json frame = jobFrame(request, checkpoint_path, shard);
    const auto job_start = Clock::now();
    unsigned deaths_without_progress = 0;

    for (unsigned dispatches = 1;; ++dispatches) {
        if (lane.fd < 0) {
            const auto spawned = respawnLane(lane);
            if (!spawned.ok()) {
                return failedOutcome(
                    "cannot fork a replacement lane: " +
                    spawned.error().message);
            }
        }
        bool dispatched;
        {
            std::lock_guard<std::mutex> guard(lane.writeMutex);
            dispatched = writeFrame(lane.fd, frame).ok();
        }
        {
            std::lock_guard<std::mutex> guard(_mutex);
            lane.currentSlug = request.slug;
            if (dispatches > 1)
                ++_stats.jobsRetried;
        }
        const Monitored monitored =
            dispatched ? monitorDispatch(lane.fd, _config, job_start,
                                         on_progress)
                       : Monitored{};
        {
            std::lock_guard<std::mutex> guard(_mutex);
            lane.currentSlug.clear();
        }
        const MonitorEnd end = monitored.end;
        if (end == MonitorEnd::Result)
            return decodeResult(monitored.resultFrame);

        const bool deadline_kill = end == MonitorEnd::HeartbeatLost ||
                                   end == MonitorEnd::CellDeadline ||
                                   end == MonitorEnd::JobDeadline;
        if (deadline_kill) {
            const char *why =
                end == MonitorEnd::JobDeadline ? "job deadline"
                : end == MonitorEnd::CellDeadline
                    ? "cell deadline"
                    : "heartbeat timeout";
            logLine("lane %d busted its %s on '%s'; killing",
                    static_cast<int>(lane.pid), why,
                    request.slug.c_str());
        }
        // A lane that died on its own (or was already gone when the
        // dispatch failed) is reaped without a kill.
        reapLane(lane, /*kill=*/deadline_kill);
        bool draining;
        {
            std::lock_guard<std::mutex> guard(_mutex);
            if (deadline_kill)
                ++_stats.laneKills;
            else
                ++_stats.laneCrashes;
            draining = _draining;
        }
        if (draining) {
            // Shutdown is in progress: the job is persisted for
            // resume; spinning up replacement lanes now would fight
            // the drain.
            LaneJobOutcome outcome;
            outcome.drained = true;
            return outcome;
        }
        if (end == MonitorEnd::JobDeadline) {
            return failedOutcome(
                "job deadline exceeded (" +
                std::to_string(_config.jobCeilingSeconds) +
                " s); not retrying");
        }

        // Crash/kill containment: retry on a fresh lane, bounded by
        // deaths since the job last made journal progress. A cell
        // resolving in this incarnation proves the journal moved, so
        // the replacement resumes FURTHER along - that is progress
        // even if the lane later died.
        if (monitored.cells > 0)
            deaths_without_progress = 1;
        else
            ++deaths_without_progress;
        if (deaths_without_progress >
            _config.maxRetriesWithoutProgress) {
            return failedOutcome(
                "job '" + request.slug + "' lost " +
                std::to_string(deaths_without_progress) +
                " lanes without checkpoint progress; giving up");
        }
        logLine("retrying '%s' on a fresh lane "
                "(death %u without progress, backoff %.2f s)",
                request.slug.c_str(), deaths_without_progress,
                _config.retryBackoffSeconds);
        if (_config.retryBackoffSeconds > 0.0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(
                    _config.retryBackoffSeconds));
        }
    }
}

void
LaneSupervisor::requestDrain()
{
    std::lock_guard<std::mutex> guard(_mutex);
    if (_draining)
        return;
    _draining = true;
    Json drain = Json::object();
    drain.set("type", "drain");
    for (auto &lane : _lanes) {
        std::lock_guard<std::mutex> write_guard(lane->writeMutex);
        if (lane->fd >= 0)
            (void)writeFrame(lane->fd, drain);
    }
}

void
LaneSupervisor::shutdown()
{
    // Closing the socket is the exit request (EOF); lanes finish the
    // current cell and _exit. Stragglers get SIGKILL after a grace
    // period - by shutdown time every job result has been consumed,
    // so nothing of value can be lost.
    std::vector<pid_t> pids;
    {
        std::lock_guard<std::mutex> guard(_mutex);
        for (auto &lane : _lanes) {
            std::lock_guard<std::mutex> write_guard(
                lane->writeMutex);
            if (lane->fd >= 0) {
                ::close(lane->fd);
                lane->fd = -1;
            }
            if (lane->pid >= 0) {
                pids.push_back(lane->pid);
                lane->pid = -1;
            }
        }
    }
    if (pids.empty())
        return;
    const auto grace_end =
        Clock::now() + std::chrono::milliseconds(2000);
    std::vector<pid_t> alive = pids;
    while (!alive.empty() && Clock::now() < grace_end) {
        std::vector<pid_t> still;
        for (const pid_t pid : alive) {
            int status = 0;
            const pid_t reaped = ::waitpid(pid, &status, WNOHANG);
            if (reaped == 0)
                still.push_back(pid);
        }
        alive.swap(still);
        if (!alive.empty()) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
    }
    for (const pid_t pid : alive) {
        logLine("lane %d ignored shutdown; killing",
                static_cast<int>(pid));
        ::kill(pid, SIGKILL);
        int status = 0;
        pid_t reaped;
        do {
            reaped = ::waitpid(pid, &status, 0);
        } while (reaped < 0 && errno == EINTR);
    }
    logLine("lane supervisor down");
}

LaneStats
LaneSupervisor::stats() const
{
    std::lock_guard<std::mutex> guard(_mutex);
    return _stats;
}

std::vector<LaneView>
LaneSupervisor::laneViews() const
{
    std::lock_guard<std::mutex> guard(_mutex);
    std::vector<LaneView> views;
    views.reserve(_lanes.size());
    for (const auto &lane : _lanes) {
        LaneView view;
        view.pid = static_cast<int>(lane->pid);
        view.slug = lane->currentSlug;
        views.push_back(view);
    }
    return views;
}

} // namespace ibp
