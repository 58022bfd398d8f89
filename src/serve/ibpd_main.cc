/**
 * @file
 * ibpd - the resident sweep daemon (docs/SERVICE.md).
 *
 * Registers every bench experiment, arms the process-wide trace
 * cache (so the second client of any suite runs warm), binds the
 * service socket, and serves until a SIGTERM/SIGINT or a client
 * "shutdown" request drains it. Draining checkpoints the in-flight
 * suite and persists queued requests; the next ibpd on the same
 * state directory resumes them.
 *
 * Usage:
 *   ibpd [--socket=PATH] [--state=DIR] [--queue-depth=N]
 *        [--lanes=N] [--cell-ceiling=SECONDS]
 *        [--job-ceiling=SECONDS] [--heartbeat-timeout=SECONDS]
 *        [--lane-retries=N] [--shard-requeues=N] [--quiet]
 *   ibpd --stats [--socket=PATH]
 *
 * --stats is a CLIENT subcommand: it connects to the running daemon
 * at the socket, prints its lane/shard/coalescing counters, and
 * exits (0 on success, 1 when no daemon answers).
 *
 * The socket defaults to $IBP_DAEMON, else out/ibpd.sock - the same
 * resolution every bench's --daemon flag uses. Exit code 0 after a
 * clean drain, 1 on a startup failure.
 *
 * Jobs run in supervised worker lane PROCESSES (--lanes, default 2):
 * a crashing or hung experiment kills its lane, not the daemon, and
 * resumes from its checkpoint journal on a fresh lane. --lanes=1
 * serves jobs strictly one at a time (bit-identical to the
 * in-process runner); --lanes=0 reverts to in-process execution
 * with no isolation. The ceilings are hard wall-clock deadlines
 * enforced with SIGKILL; see docs/ROBUSTNESS.md.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include <unistd.h>

#include "serve/server.hh"
#include "sim/result_store.hh"
#include "trace/trace_cache.hh"

#include "suites.hh"

namespace {

/** Self-pipe bridging async signals to the drain path: the handler
 *  only write()s (async-signal-safe); a watcher thread does the
 *  locking work of SweepServer::requestDrain(). */
int g_signal_pipe[2] = {-1, -1};

void
onSignal(int)
{
    const char byte = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(g_signal_pipe[1], &byte, 1);
}

bool
parseFlag(const std::string &arg, const char *name,
          std::string *value)
{
    const std::string prefix = std::string(name) + "=";
    if (arg.rfind(prefix, 0) != 0)
        return false;
    *value = arg.substr(prefix.size());
    return true;
}

/** The --stats client: query the running daemon and pretty-print
 *  its counters. Returns the process exit code. */
int
runStatsClient(const std::string &socket_override)
{
    const std::string path = ibp::daemonSocketPath(socket_override);
    const auto fd = ibp::connectDaemon(path);
    if (!fd.ok()) {
        std::fprintf(stderr, "ibpd: no daemon at %s: %s\n",
                     path.c_str(),
                     fd.error().describe().c_str());
        return 1;
    }
    ibp::Json request = ibp::Json::object();
    request.set("type", "stats");
    const auto written = ibp::writeFrame(fd.value(), request);
    auto reply = written.ok()
                     ? ibp::readFrame(fd.value(), 10.0)
                     : ibp::Result<ibp::Json>(written.error());
    ::close(fd.value());
    if (!reply.ok()) {
        std::fprintf(stderr, "ibpd: stats request failed: %s\n",
                     reply.error().describe().c_str());
        return 1;
    }
    const ibp::Json &stats = reply.value();
    const auto count = [&stats](const char *key) {
        return static_cast<unsigned long long>(
            stats.numberOr(key, 0));
    };
    std::printf("ibpd at %s\n", path.c_str());
    std::printf("jobs:      accepted %llu, completed %llu, "
                "drained %llu, restored %llu, warm %llu\n",
                count("jobs_accepted"), count("jobs_completed"),
                count("jobs_drained"), count("jobs_restored"),
                count("warm_hits"));
    std::printf("requests:  coalesced %llu, rejected %llu, "
                "incompatible %llu\n",
                count("requests_coalesced"),
                count("requests_rejected"),
                count("requests_incompatible"));
    std::printf("lanes:     %llu (forked %llu, crashes %llu, "
                "kills %llu, job retries %llu)\n",
                count("lanes"), count("lanes_forked"),
                count("lane_crashes"), count("lane_kills"),
                count("jobs_retried"));
    std::printf("shards:    jobs sharded %llu, store-served %llu, "
                "planned %llu, requeued %llu, abandoned %llu\n",
                count("jobs_sharded"), count("jobs_store_served"),
                count("shards_planned"),
                count("shards_requeued"),
                count("shards_abandoned"));
    std::printf("overlap:   cells stolen %llu, "
                "overlap cells coalesced %llu\n",
                count("shard_cells_stolen"),
                count("overlap_cells_coalesced"));
    std::printf("queue:     depth %llu", count("queue_depth"));
    if (stats.contains("running_jobs") &&
        stats.at("running_jobs").isArray() &&
        stats.at("running_jobs").size() > 0) {
        std::printf(", running:");
        const ibp::Json &running = stats.at("running_jobs");
        for (std::size_t i = 0; i < running.size(); ++i)
            std::printf(" %s", running.at(i).asString().c_str());
    }
    std::printf("\n");
    return 0;
}

void
printUsage()
{
    std::printf(
        "usage: ibpd [--socket=PATH] [--state=DIR]\n"
        "            [--queue-depth=N] [--lanes=N]\n"
        "            [--cell-ceiling=SECONDS]\n"
        "            [--job-ceiling=SECONDS]\n"
        "            [--heartbeat-timeout=SECONDS]\n"
        "            [--lane-retries=N]\n"
        "            [--shard-requeues=N] [--quiet]\n"
        "       ibpd --stats [--socket=PATH]\n"
        "\n"
        "--stats asks the RUNNING daemon for its lane, shard and\n"
        "coalescing counters and exits.\n"
        "\n"
        "Resident sweep daemon: serves bench runs over a unix\n"
        "socket (see docs/SERVICE.md). Clients connect via the\n"
        "benches' --daemon flag or the IBP_DAEMON variable.\n"
        "SIGTERM drains gracefully: the in-flight suite is\n"
        "checkpointed and queued requests persist; restarting with\n"
        "the same --state resumes them.\n"
        "\n"
        "Jobs run in supervised worker lane processes (--lanes,\n"
        "default 2; 0 = in-process, no isolation). A lane that\n"
        "crashes or busts a ceiling is SIGKILLed and replaced; its\n"
        "job resumes from the checkpoint journal. The ceilings are\n"
        "hard wall-clock deadlines (0 = disabled); see\n"
        "docs/ROBUSTNESS.md.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    ibp::ServerConfig config;
    config.lanes = 2; // the daemon defaults to crash isolation
    bool stats_mode = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string value;
        if (arg == "--stats") {
            stats_mode = true;
        } else if (parseFlag(arg, "--socket", &value)) {
            config.socketPath = value;
        } else if (parseFlag(arg, "--state", &value)) {
            config.stateDir = value;
        } else if (parseFlag(arg, "--queue-depth", &value)) {
            config.maxQueueDepth =
                static_cast<std::size_t>(std::atoi(value.c_str()));
        } else if (parseFlag(arg, "--lanes", &value)) {
            config.lanes =
                static_cast<unsigned>(std::atoi(value.c_str()));
        } else if (parseFlag(arg, "--cell-ceiling", &value)) {
            config.cellCeilingSeconds = std::atof(value.c_str());
        } else if (parseFlag(arg, "--job-ceiling", &value)) {
            config.jobCeilingSeconds = std::atof(value.c_str());
        } else if (parseFlag(arg, "--heartbeat-timeout", &value)) {
            config.heartbeatTimeoutSeconds =
                std::atof(value.c_str());
        } else if (parseFlag(arg, "--lane-retries", &value)) {
            config.laneMaxRetries =
                static_cast<unsigned>(std::atoi(value.c_str()));
        } else if (parseFlag(arg, "--shard-requeues", &value)) {
            config.shardRequeueBudget =
                static_cast<unsigned>(std::atoi(value.c_str()));
        } else if (arg == "--quiet") {
            config.echo = false;
        } else if (arg == "--help" || arg == "-h") {
            printUsage();
            return 0;
        } else {
            std::fprintf(stderr, "ibpd: unknown argument '%s'\n",
                         arg.c_str());
            printUsage();
            return 1;
        }
    }

    if (stats_mode)
        return runStatsClient(config.socketPath);

    ibp::registerAllBenchExperiments();

    // Warm state is the daemon's whole point: arm the trace cache
    // and the content-addressed result store unless the user already
    // pinned them via the environment.
    if (!std::getenv("IBP_TRACE_CACHE")) {
        ibp::TraceCache::configureGlobal(config.stateDir +
                                         "/trace-cache");
    }
    if (!std::getenv("IBP_RESULT_STORE")) {
        ibp::ResultStore::configureGlobal(config.stateDir +
                                          "/result-store");
    }

    // Install the handlers BEFORE start() binds the socket: once a
    // client can reach the daemon, a SIGTERM must drain it. A signal
    // that lands during start-up waits in the pipe until the watcher
    // below picks it up.
    if (::pipe(g_signal_pipe) != 0) {
        std::fprintf(stderr, "ibpd: pipe() failed: %s\n",
                     std::strerror(errno));
        return 1;
    }
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_handler = onSignal;
    ::sigaction(SIGTERM, &action, nullptr);
    ::sigaction(SIGINT, &action, nullptr);

    ibp::SweepServer server(config);
    const auto started = server.start();
    if (!started.ok()) {
        std::fprintf(stderr, "ibpd: %s\n",
                     started.error().describe().c_str());
        return 1;
    }

    std::thread signal_watcher([&server] {
        char byte = 0;
        while (::read(g_signal_pipe[0], &byte, 1) < 0 &&
               errno == EINTR) {
        }
        server.requestDrain();
    });

    // Blocks until a signal or a client "shutdown" drains us.
    server.waitStopped();

    // Wake the watcher if the drain came over the socket instead of
    // a signal (requestDrain is idempotent).
    onSignal(0);
    signal_watcher.join();
    return 0;
}
