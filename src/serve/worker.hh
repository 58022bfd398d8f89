/**
 * @file
 * Worker lane processes for the ibpd sweep daemon (docs/SERVICE.md).
 *
 * A lane is a forked child of the daemon that runs experiment jobs
 * in its own address space: a SIGSEGV, std::bad_alloc or truly hung
 * cell kills the LANE, never the daemon, and the supervisor
 * (serve/supervisor.hh) resumes the job on a fresh lane from its
 * checkpoint journal. Supervisor and lane speak the existing
 * length-prefixed frame protocol (serve/protocol.hh) over a
 * socketpair:
 *
 *   supervisor -> lane   "job"    checkpoint path + RunRequest,
 *                                 shard assignment, cell_claims,
 *                                 store_only
 *                        "drain"  finish the current cell, stop
 *                        "exit"   quit when idle (EOF means the same)
 *   lane -> supervisor   "progress"   cumulative resolved cells, at
 *                                     most one per 25 ms tick, and
 *                                     the final count before "result"
 *                        "heartbeat"  liveness while a job runs
 *                        "result"     terminal frame of one job:
 *                                     exit code, restored cells,
 *                                     seconds, drained flag,
 *                                     store_missed, error or full
 *                                     artifact JSON
 *
 * The lane never outlives the daemon: it asks the kernel for SIGKILL
 * on parent death (PR_SET_PDEATHSIG) and treats EOF on its socket as
 * an exit request.
 */

#ifndef IBP_SERVE_WORKER_HH
#define IBP_SERVE_WORKER_HH

#include <sys/types.h>

#include "robust/error.hh"

namespace ibp {

/** A forked lane as the supervisor sees it. */
struct LaneProcess
{
    pid_t pid = -1;
    /** Supervisor end of the socketpair. */
    int fd = -1;
};

/**
 * Fork one worker lane. The child re-initialises every inherited
 * multi-threading hazard (executor pool, experiment registry lock),
 * closes every file descriptor except its lane socket and stdio,
 * resets termination signals to their defaults, and enters the lane
 * serving loop - it never returns and exits only via _exit(). The
 * parent gets the pid and its end of the socketpair.
 *
 * Safe to call from a multi-threaded parent (replacement lanes are
 * forked while connection threads run); the caller must not hold
 * locks the child could need, which in practice means: do not fork
 * while holding serve-layer mutexes.
 */
Result<LaneProcess> spawnWorkerLane();

/**
 * The lane serving loop (child side). Exposed for spawnWorkerLane;
 * never call it in a process you intend to keep.
 */
[[noreturn]] void runWorkerLane(int fd);

} // namespace ibp

#endif // IBP_SERVE_WORKER_HH
