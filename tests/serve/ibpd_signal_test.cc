/**
 * @file
 * Start-up signal handling of the ibpd binary: a SIGTERM that lands
 * as soon as the daemon is reachable - right after it first accepts
 * a connection, or right after its first pong - must drain it (exit
 * code 0, "drain requested" in its log) rather than kill it. The
 * handlers are installed before the socket is bound, so there is no
 * window in which a reachable daemon dies undrained.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <csignal>
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "serve/protocol.hh"

namespace ibp {
namespace {

namespace fs = std::filesystem;

/** True once a ping on @p socket is answered with a pong. */
bool
pongs(const std::string &socket)
{
    auto fd = connectDaemon(socket);
    if (!fd.ok())
        return false;
    Json ping = Json::object();
    ping.set("type", "ping");
    bool answered = false;
    if (writeFrame(fd.value(), ping).ok()) {
        auto pong = readFrame(fd.value(), 5.0);
        answered = pong.ok() && pong.value().stringOr("type", "") == "pong";
    }
    ::close(fd.value());
    return answered;
}

/** True once @p socket accepts a connection. */
bool
accepts(const std::string &socket)
{
    auto fd = connectDaemon(socket);
    if (!fd.ok())
        return false;
    ::close(fd.value());
    return true;
}

/**
 * Start ibpd, wait until @p reachable(socket) first holds, SIGTERM
 * it at once, and expect a drained exit 0.
 */
void
expectDrainOnEarlySigterm(const std::string &tag,
                          bool (*reachable)(const std::string &))
{
    for (int round = 0; round < 5; ++round) {
        const std::string dir = testing::TempDir() + "/ibp_ibpd_" + tag +
                                "_" + std::to_string(round);
        fs::remove_all(dir);
        fs::create_directories(dir);
        const std::string socket = dir + "/ibpd.sock";
        const std::string log = dir + "/ibpd.log";

        // Everything the child needs is built before fork(): only
        // async-signal-safe calls may run between fork and exec.
        const std::string socket_flag = "--socket=" + socket;
        const std::string state_flag = "--state=" + dir + "/state";
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            const int out =
                ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
            ::dup2(out, STDOUT_FILENO);
            ::dup2(out, STDERR_FILENO);
            ::execl(IBPD_BINARY, "ibpd", socket_flag.c_str(),
                    state_flag.c_str(), "--lanes=0",
                    static_cast<char *>(nullptr));
            ::_exit(127);
        }

        // Poll without sleeping, so the signal follows the first
        // moment of reachability as closely as possible.
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        bool up = false;
        while (!up && std::chrono::steady_clock::now() < give_up)
            up = reachable(socket);
        if (!up)
            ::kill(pid, SIGKILL);
        else
            EXPECT_EQ(::kill(pid, SIGTERM), 0);

        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(up) << "ibpd never became reachable";
        EXPECT_TRUE(WIFEXITED(status))
            << tag << ": ibpd died by signal " << WTERMSIG(status);
        if (WIFEXITED(status))
            EXPECT_EQ(WEXITSTATUS(status), 0) << tag;
        std::ifstream in(log);
        std::stringstream text;
        text << in.rdbuf();
        EXPECT_NE(text.str().find("drain requested"), std::string::npos)
            << tag << ": " << text.str();
        fs::remove_all(dir);
    }
}

TEST(IbpdSignalTest, SigtermRightAfterFirstConnectDrainsAndExitsZero)
{
    expectDrainOnEarlySigterm("connect", accepts);
}

TEST(IbpdSignalTest, SigtermRightAfterFirstPongDrainsAndExitsZero)
{
    expectDrainOnEarlySigterm("pong", pongs);
}

} // namespace
} // namespace ibp
