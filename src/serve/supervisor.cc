#include "serve/supervisor.hh"

#include <cerrno>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstring>
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

    const auto fail = [](const std::string &message) {
        LaneJobOutcome outcome;
        outcome.result.exitCode = 1;
        outcome.result.error = message;
        return outcome;
    };
    const auto drained_outcome = [] {
        LaneJobOutcome outcome;
        outcome.drained = true;
        return outcome;
    };

    const auto job_start = Clock::now();
    unsigned deaths_without_progress = 0;
    unsigned dispatches = 0;

    for (;;) {
        if (lane.fd < 0) {
            const auto spawned = respawnLane(lane);
            if (!spawned.ok()) {
                return fail("cannot fork a replacement lane: " +
                            spawned.error().message);
            }
        }

        Json job = Json::object();
        job.set("type", "job");
        job.set("checkpoint", checkpoint_path);
        job.set("request", request.toJson());
        // Shard fields ride on the lane frame, not the client
        // request: sharding is a daemon scheduling decision and must
        // not perturb RunRequest::signature() coalescing.
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
        bool dispatched;
        {
            std::lock_guard<std::mutex> guard(lane.writeMutex);
            dispatched = writeFrame(lane.fd, job).ok();
        }
        ++dispatches;
        {
            std::lock_guard<std::mutex> guard(_mutex);
            lane.currentSlug = request.slug;
            if (dispatches > 1)
                ++_stats.jobsRetried;
        }

        // ---- monitor this dispatch until a terminal condition ----
        MonitorEnd end = MonitorEnd::DispatchFailed;
        Json result_frame;
        std::size_t cells_this_incarnation = 0;
        auto last_frame = Clock::now();
        auto last_progress = last_frame;

        while (dispatched) {
            // The nearest of three deadlines bounds the poll; -1
            // blocks forever when every ceiling is disabled.
            double wait = -1.0;
            const auto consider = [&wait](double ceiling,
                                          double elapsed) {
                if (ceiling <= 0.0)
                    return;
                // Clamp: negative would read as "no deadline".
                const double left =
                    ceiling > elapsed ? ceiling - elapsed : 0.0;
                if (wait < 0.0 || left < wait)
                    wait = left;
            };
            consider(_config.heartbeatTimeoutSeconds,
                     secondsSince(last_frame));
            consider(_config.cellCeilingSeconds,
                     secondsSince(last_progress));
            consider(_config.jobCeilingSeconds,
                     secondsSince(job_start));

            // Re-measures the clocks, so a poll that timed out a
            // hair early (ms rounding) reports nothing and loops.
            const auto expired = [&]() -> bool {
                if (_config.jobCeilingSeconds > 0.0 &&
                    secondsSince(job_start) >=
                        _config.jobCeilingSeconds) {
                    end = MonitorEnd::JobDeadline;
                    return true;
                }
                if (_config.cellCeilingSeconds > 0.0 &&
                    secondsSince(last_progress) >=
                        _config.cellCeilingSeconds) {
                    end = MonitorEnd::CellDeadline;
                    return true;
                }
                if (_config.heartbeatTimeoutSeconds > 0.0 &&
                    secondsSince(last_frame) >=
                        _config.heartbeatTimeoutSeconds) {
                    end = MonitorEnd::HeartbeatLost;
                    return true;
                }
                return false;
            };

            if (wait >= 0.0 && wait <= 0.0001) {
                if (expired())
                    break;
                continue;
            }
            pollfd poller;
            poller.fd = lane.fd;
            poller.events = POLLIN;
            poller.revents = 0;
            const int timeout_ms =
                wait < 0.0 ? -1
                           : static_cast<int>(wait * 1000.0) + 1;
            const int ready = ::poll(&poller, 1, timeout_ms);
            if (ready < 0) {
                if (errno == EINTR)
                    continue;
                end = MonitorEnd::LaneDied;
                break;
            }
            if (ready == 0) {
                if (expired())
                    break;
                continue;
            }
            auto frame = readFrame(lane.fd);
            if (!frame.ok()) {
                end = MonitorEnd::LaneDied;
                break;
            }
            last_frame = Clock::now();
            const std::string type =
                frame.value().stringOr("type", "");
            if (type == "progress") {
                last_progress = last_frame;
                cells_this_incarnation = static_cast<std::size_t>(
                    frame.value().numberOr("cells", 0));
                if (on_progress)
                    on_progress(cells_this_incarnation);
            } else if (type == "result") {
                result_frame = std::move(frame).value();
                end = MonitorEnd::Result;
                break;
            }
            // "heartbeat" and unknown types only refresh last_frame.
        }

        {
            std::lock_guard<std::mutex> guard(_mutex);
            lane.currentSlug.clear();
        }

        // ---- act on how the dispatch ended ----
        if (end == MonitorEnd::Result) {
            LaneJobOutcome outcome;
            outcome.drained =
                result_frame.contains("drained") &&
                result_frame.at("drained").asBool();
            outcome.result.exitCode = static_cast<int>(
                result_frame.numberOr("exit_code", 1));
            outcome.result.restoredCells =
                static_cast<std::size_t>(
                    result_frame.numberOr("restored_cells", 0));
            outcome.result.seconds =
                result_frame.numberOr("seconds", 0.0);
            outcome.result.error =
                result_frame.stringOr("error", "");
            outcome.result.storeMissed =
                result_frame.contains("store_missed") &&
                result_frame.at("store_missed").asBool();
            if (result_frame.contains("artifact")) {
                try {
                    outcome.result.artifact =
                        std::make_shared<RunArtifact>(
                            RunArtifact::fromJson(
                                result_frame.at("artifact")));
                } catch (const std::exception &error) {
                    return fail(
                        std::string(
                            "lane returned a malformed artifact: ") +
                        error.what());
                }
            }
            return outcome;
        }

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
            reapLane(lane, /*kill=*/true);
            std::lock_guard<std::mutex> guard(_mutex);
            ++_stats.laneKills;
        } else {
            // The lane died on its own (or dispatch failed because
            // it was already gone); reap without killing.
            reapLane(lane, /*kill=*/false);
            std::lock_guard<std::mutex> guard(_mutex);
            ++_stats.laneCrashes;
        }

        bool draining;
        {
            std::lock_guard<std::mutex> guard(_mutex);
            draining = _draining;
        }
        if (draining) {
            // Shutdown is in progress: the job is persisted for
            // resume; spinning up replacement lanes now would fight
            // the drain.
            return drained_outcome();
        }
        if (end == MonitorEnd::JobDeadline) {
            return fail("job deadline exceeded (" +
                        std::to_string(_config.jobCeilingSeconds) +
                        " s); not retrying");
        }

        // Crash/kill containment: retry on a fresh lane, bounded by
        // deaths since the job last made journal progress. A cell
        // resolving in this incarnation proves the journal moved, so
        // the replacement resumes FURTHER along - that is progress
        // even if the lane later died.
        if (cells_this_incarnation > 0)
            deaths_without_progress = 1;
        else
            ++deaths_without_progress;
        if (deaths_without_progress >
            _config.maxRetriesWithoutProgress) {
            return fail(
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
