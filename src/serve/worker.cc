#include "serve/worker.hh"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <string>
#include <thread>

#include <dirent.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include "serve/protocol.hh"
#include "sim/executor.hh"
#include "sim/experiment.hh"

namespace ibp {

namespace {

/** Everything a lane's threads share. The reader thread is the
 *  socket's only reader. Its writers take turns: a job's reporter
 *  thread sends progress and heartbeats, and the main thread sends
 *  the result only after the reporter has ended. */
struct LaneState
{
    int fd = -1;

    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Json> jobs;
    bool quit = false;

    /** Sticky daemon-wide drain: once set, the current job stops at
     *  the next cell boundary and no further job will arrive. */
    std::atomic<bool> abort{false};
};

void
sendLaneFrame(LaneState &state, const Json &frame)
{
    // A failed write means the supervisor is gone; PDEATHSIG will
    // reap this process, so the error itself needs no handling.
    (void)writeFrame(state.fd, frame);
}

/** Close every inherited descriptor except stdio and @p keep_fd.
 *  The child of a daemon inherits the listen socket, every client
 *  connection, the drain pipe and its sibling lanes' sockets; any
 *  of them held open here would defeat EOF-based shutdown. */
void
closeInheritedFds(int keep_fd)
{
    DIR *dir = ::opendir("/proc/self/fd");
    if (dir == nullptr) {
        // Conservative fallback: sweep a fixed range.
        for (int fd = 3; fd < 1024; ++fd) {
            if (fd != keep_fd)
                ::close(fd);
        }
        return;
    }
    const int dir_fd = ::dirfd(dir);
    while (dirent *entry = ::readdir(dir)) {
        const int fd = std::atoi(entry->d_name);
        if (fd <= 2 || fd == keep_fd || fd == dir_fd)
            continue;
        ::close(fd);
    }
    ::closedir(dir);
}

/** Sole reader of the lane socket: queues jobs for the main thread,
 *  flips the drain flag, and turns "exit" or EOF into quit. */
void
readerLoop(LaneState &state)
{
    for (;;) {
        auto frame = readFrame(state.fd);
        std::string type;
        if (frame.ok())
            type = frame.value().stringOr("type", "");
        if (!frame.ok() || type == "exit") {
            std::lock_guard<std::mutex> lock(state.mutex);
            state.quit = true;
            // EOF mid-job: wind the job down at the next cell
            // boundary instead of finishing a sweep nobody will
            // read. The supervisor escalates to SIGKILL anyway if
            // this takes too long.
            state.abort.store(true, std::memory_order_release);
            state.cv.notify_all();
            return;
        }
        if (type == "job") {
            std::lock_guard<std::mutex> lock(state.mutex);
            state.jobs.push_back(std::move(frame).value());
            state.cv.notify_all();
        } else if (type == "drain") {
            state.abort.store(true, std::memory_order_release);
        }
        // Unknown frame types are ignored: a newer supervisor may
        // speak a slightly richer dialect.
    }
}

void
runLaneJob(LaneState &state, const Json &frame)
{
    Json reply = Json::object();
    reply.set("type", "result");

    const ExperimentDef *def = nullptr;
    RunRequest request;
    std::string error;
    if (frame.contains("request")) {
        auto parsed = RunRequest::fromJson(frame.at("request"));
        if (parsed.ok()) {
            request = std::move(parsed).value();
            def = findExperiment(request.slug);
            if (def == nullptr)
                error = "lane: unknown experiment '" + request.slug +
                        "'";
        } else {
            error = "lane: bad job frame: " + parsed.error().message;
        }
    } else {
        error = "lane: job frame without a request";
    }
    if (def == nullptr) {
        reply.set("exit_code", 1);
        reply.set("error", error);
        reply.set("drained",
                  Json(state.abort.load(std::memory_order_acquire)));
        sendLaneFrame(state, reply);
        return;
    }

    ExperimentOptions options;
    options.quick = request.quick;
    options.checkpointPath = frame.stringOr("checkpoint", "");
    options.echo = false;
    options.abort = &state.abort;
    // Shard assignment from the supervisor frame (absent for a
    // whole-job dispatch; see serve/supervisor.hh LaneShard).
    options.shardCount = static_cast<unsigned>(
        frame.numberOr("shard_count", 1));
    options.shardIndex = static_cast<unsigned>(
        frame.numberOr("shard_index", 0));
    options.shardSteal = frame.contains("shard_steal") &&
                         frame.at("shard_steal").asBool();
    options.cellClaims = frame.contains("cell_claims") &&
                         frame.at("cell_claims").asBool();
    options.storeOnly = frame.contains("store_only") &&
                        frame.at("store_only").asBool();
    std::atomic<std::size_t> cells{0};
    options.onCellFinished = [&cells] {
        cells.fetch_add(1, std::memory_order_relaxed);
    };

    // One thread reports for the job: each 25 ms tick it sends one
    // progress frame when the cell count moved, and a heartbeat
    // after 250 ms without any frame. Heartbeats run only while a
    // job does: an idle lane writing unread frames would eventually
    // fill the socket buffer, since the supervisor only reads during
    // its per-job monitor loop. The end of the job wakes the thread
    // at once, and it sends the final count before the result frame
    // (the supervisor's per-lane cell counts read it).
    std::mutex tick_mutex;
    std::condition_variable tick_cv;
    bool done = false;
    std::thread reporter([&] {
        std::size_t sent = 0;
        auto last = std::chrono::steady_clock::now();
        std::unique_lock<std::mutex> lock(tick_mutex);
        for (;;) {
            const bool finished = tick_cv.wait_for(
                lock, std::chrono::milliseconds(25),
                [&done] { return done; });
            lock.unlock();
            const std::size_t count =
                cells.load(std::memory_order_relaxed);
            const auto now = std::chrono::steady_clock::now();
            if (count != sent) {
                Json progress = Json::object();
                progress.set("type", "progress");
                progress.set("cells", static_cast<double>(count));
                sendLaneFrame(state, progress);
                sent = count;
                last = now;
            } else if (!finished &&
                       now - last >= std::chrono::milliseconds(250)) {
                Json beat = Json::object();
                beat.set("type", "heartbeat");
                sendLaneFrame(state, beat);
                last = now;
            }
            if (finished)
                return;
            lock.lock();
        }
    });

    const ExperimentRunResult result =
        runExperimentInProcess(*def, options);

    {
        std::lock_guard<std::mutex> lock(tick_mutex);
        done = true;
    }
    tick_cv.notify_one();
    reporter.join();

    reply.set("exit_code", result.exitCode);
    reply.set("restored_cells",
              static_cast<double>(result.restoredCells));
    reply.set("seconds", result.seconds);
    reply.set("drained",
              Json(state.abort.load(std::memory_order_acquire)));
    if (!result.error.empty())
        reply.set("error", result.error);
    if (result.storeMissed)
        reply.set("store_missed", true);
    if (result.artifact)
        reply.set("artifact", result.artifact->toJson());
    sendLaneFrame(state, reply);
}

} // namespace

void
runWorkerLane(int fd)
{
    LaneState state;
    state.fd = fd;
    std::thread reader([&state] { readerLoop(state); });
    for (;;) {
        Json job;
        {
            std::unique_lock<std::mutex> lock(state.mutex);
            state.cv.wait(lock, [&state] {
                return state.quit || !state.jobs.empty();
            });
            if (state.jobs.empty())
                break; // quit, nothing pending
            job = std::move(state.jobs.front());
            state.jobs.pop_front();
        }
        runLaneJob(state, job);
    }
    reader.join();
    // _exit, not exit: static destructors and atexit handlers of the
    // parent image must not run in the child.
    ::_exit(0);
}

Result<LaneProcess>
spawnWorkerLane()
{
    int fds[2];
    // A socketpair, not a pipe: the frame protocol reads and writes
    // with recv/send, which demand a socket.
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
        return RunError::permanent(
            std::string("socketpair() failed: ") +
            std::strerror(errno));
    }
    // Flush user-space stdio buffers: a fork would duplicate them
    // and the child's exit path could emit the parent's pending
    // output a second time.
    std::fflush(nullptr);
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) {
        const RunError error = RunError::transient(
            std::string("fork() failed: ") + std::strerror(errno));
        ::close(fds[0]);
        ::close(fds[1]);
        return error;
    }
    if (pid == 0) {
        // Child: become a lane. Die with the daemon, whatever kills
        // it; close the window where the parent died before prctl.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent)
            ::_exit(1);
        // The daemon's signal handlers write to a pipe this child
        // just closes; default dispositions are the predictable
        // choice for a lane (a stray SIGTERM kills it, and the
        // supervisor handles lane death as a matter of course).
        std::signal(SIGTERM, SIG_DFL);
        std::signal(SIGINT, SIG_DFL);
        std::signal(SIGHUP, SIG_DFL);
        ::close(fds[0]);
        closeInheritedFds(fds[1]);
        // The parent is multi-threaded; only this thread crossed the
        // fork. Re-initialise every lock another parent thread may
        // have held at the fork instant.
        Executor::global().resetAfterFork();
        resetExperimentRegistryAfterFork();
        runWorkerLane(fds[1]);
    }
    ::close(fds[1]);
    LaneProcess lane;
    lane.pid = pid;
    lane.fd = fds[0];
    return lane;
}

} // namespace ibp
