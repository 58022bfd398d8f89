/**
 * @file
 * Trace-driven simulation of an indirect branch predictor.
 *
 * Follows the paper's methodology exactly: every dynamic indirect
 * branch (calls, jumps, switches; returns excluded) is first
 * predicted, then the predictor is updated with the resolved target.
 * Cold-start misses count. Conditional branches are passed through to
 * predictors that consume them (Target Cache, the section 3.3
 * conditional-history variant) and ignored by the rest.
 */

#ifndef IBP_SIM_SIMULATOR_HH
#define IBP_SIM_SIMULATOR_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/flat_table.hh"
#include "core/predictor.hh"
#include "trace/trace.hh"

namespace ibp {

class SweepKernel;

/** Outcome of one predictor/trace run. */
struct SimResult
{
    std::string benchmark;
    std::string predictor;
    std::uint64_t branches = 0;
    std::uint64_t misses = 0;
    /** Misses where the predictor produced no target at all. */
    std::uint64_t noPrediction = 0;
    std::uint64_t tableOccupancy = 0;
    std::uint64_t tableCapacity = 0;
    /** Wall time of the simulation loop, in seconds. For a shared
     *  traversal (simulateMany) this is the group wall time divided
     *  evenly - synthetic, only the aggregate is physical. */
    double seconds = 0.0;
    /** Wall time of the whole traversal that produced this result;
     *  equals `seconds` for a solo simulate(), the undivided group
     *  time for a shared traversal. */
    double groupSeconds = 0.0;
    /** True when this result came out of a shared traversal, i.e.
     *  `seconds` is synthetic (see groupSeconds). */
    bool sharedTraversal = false;

    /** Misprediction rate in percent (the paper's metric). */
    double
    missPercent() const
    {
        return branches == 0 ? 0.0
                             : 100.0 * static_cast<double>(misses) /
                                   static_cast<double>(branches);
    }

    /** Fraction of table entries in use (utilisation, section 5.2.1). */
    double
    utilisation() const
    {
        return tableCapacity == 0
                   ? 0.0
                   : static_cast<double>(tableOccupancy) /
                         static_cast<double>(tableCapacity);
    }
};

/**
 * Epoch-tagged cooperative cancellation token.
 *
 * A watchdog cancelling "whatever the worker is doing" with a plain
 * bool is racy: after attempt N's deadline expires, the watchdog can
 * store the flag *after* the worker has already cleared it and
 * started attempt N+1, spuriously cancelling a healthy attempt. The
 * token closes that race by naming the victim: the owner thread
 * bumps `armed` to a fresh epoch before each attempt, the watchdog
 * requests cancellation *of the epoch it observed*, and the poll
 * only fires when the requested epoch matches the attempt currently
 * running. A stale request aimed at a finished attempt matches
 * nothing and is ignored.
 */
struct CancelToken
{
    /** Epoch the watchdog wants cancelled (atomic store); 0 = none. */
    std::atomic<std::uint64_t> requested{0};

    /**
     * Epoch of the attempt currently running. Written by the owner
     * thread before each attempt and read only on that thread, so it
     * needs no atomicity; 0 means no attempt is armed.
     */
    std::uint64_t armed = 0;

    bool
    cancelled() const
    {
        return armed != 0 &&
               requested.load(std::memory_order_relaxed) == armed;
    }
};

/**
 * Telemetry of one simulateMany() block traversal (see
 * SimOptions::traversal): how many blocks the records were fed in
 * and how the predictor columns were partitioned between the batched
 * lane engine and the generic record-at-a-time path.
 */
struct TraversalStats
{
    /** Blocks sliced zero-copy from the trace's columns. */
    std::uint64_t columnarBlocks = 0;
    /** Records skipped wholesale by the block classifier (returns,
     *  plus conditionals when nothing in the traversal consumes
     *  them). */
    std::uint64_t skippedRecords = 0;
    /** Predictor columns executed by the batched lane engine. */
    std::uint32_t laneColumns = 0;
    /** Columns that ran the generic record-at-a-time path. */
    std::uint32_t genericColumns = 0;
    /** Distinct state machines (one per distinct TwoLevelConfig)
     *  the lane engine probes and trains once per record. */
    std::uint32_t laneMachines = 0;
    /** Two-level members folded onto an earlier equal machine: they
     *  never probe, train or allocate a table of their own. */
    std::uint32_t foldedMembers = 0;
    /** LRU stacks the lane engine ran: each drives two or more
     *  fully-associative machines of different sizes in one pass. */
    std::uint32_t lruStacks = 0;
    /** Machines run as LRU stack members (counted in laneMachines
     *  too); they never allocate a table of their own. */
    std::uint32_t stackedMembers = 0;
    /** Set stacks the lane engine ran: each drives two or more
     *  set-associative machines of equal set count and different
     *  associativity in one pass. */
    std::uint32_t setStacks = 0;
    /** Machines run as set stack members (counted in laneMachines
     *  too); they never allocate a table of their own. */
    std::uint32_t setStackedMembers = 0;
};

/** Extra knobs for a simulation run. */
struct SimOptions
{
    /** Skip this many leading indirect branches (warm-up window
     *  excluded from the counts, still used for training). */
    std::uint64_t warmupBranches = 0;

    /** Collect per-site miss counts (costs a hash update per branch). */
    bool perSiteMisses = false;

    /**
     * Cooperative cancellation token, polled every few thousand
     * records (the poll is a relaxed atomic load, invisible next to
     * the predictor work). When the token reports cancelled - the
     * SuiteRunner watchdog requests this on a per-cell deadline -
     * simulate() throws RunException with a timeout RunError.
     * nullptr disables.
     */
    const CancelToken *cancel = nullptr;

    /**
     * Fused sweep kernel holding the shared first-level histories of
     * the predictors in this run (simulateMany only). The predictors
     * that joined it (SweepKernel::tryJoin) run as lane columns on
     * the kernel's keys; their own objects are never asked to
     * predict, update or observe, and stay usable on their own. The
     * traversal calls kernel->observeConditional() for each
     * conditional record and kernel->commit() after each indirect
     * record. The caller owns kernel lifetime and must have called
     * finalize(). nullptr disables.
     */
    SweepKernel *kernel = nullptr;

    /** Optional out-parameter: simulateMany() fills it with block
     *  traversal telemetry (metrics.simd). nullptr disables. */
    TraversalStats *traversal = nullptr;
};

/**
 * Per-site miss accounting (populated when requested). Both counters
 * for a site live in one FlatMap slot, so the hot loop pays a single
 * hash probe per branch instead of two ordered-map walks; simulate()
 * pre-sizes the map from Trace::siteCountHint() so collection never
 * rehashes mid-run.
 */
struct SiteMissStats
{
    struct SiteCounts
    {
        std::uint64_t executions = 0;
        std::uint64_t misses = 0;
    };

    FlatMap<Addr, SiteCounts> sites;

    std::uint64_t
    executions(Addr pc) const
    {
        const SiteCounts *counts = sites.find(pc);
        return counts == nullptr ? 0 : counts->executions;
    }

    std::uint64_t
    misses(Addr pc) const
    {
        const SiteCounts *counts = sites.find(pc);
        return counts == nullptr ? 0 : counts->misses;
    }
};

/** Run @p predictor over @p trace from a cold state. */
SimResult simulate(IndirectPredictor &predictor, const Trace &trace,
                   const SimOptions &options = {},
                   SiteMissStats *siteStats = nullptr);

/**
 * Indirect records per lane-engine block: simulateMany() runs each
 * lane table over a block of this many records before the next
 * (machine-major order; see LanePlan in simulator.cc). A constant,
 * not a setting: 128 to 4096 measured the same.
 */
inline constexpr std::size_t kLaneBlockRecords = 512;

/**
 * Single-pass multi-predictor engine: run every predictor of
 * @p predictors over @p trace in ONE trace traversal, from cold
 * state, producing exactly the SimResult counters simulate() would
 * have produced per predictor (the predictors are independent, so
 * feeding them the same record stream is observationally identical -
 * the differential test in tests/sim pins this bit-for-bit).
 *
 * This is how SuiteRunner feeds all columns of a sweep from one
 * traversal per benchmark instead of one per cell, which removes the
 * dominant memory-bandwidth cost of wide sweeps. Restrictions versus
 * the per-cell path: one shared cancellation token covers the whole
 * traversal (a timeout aborts all predictors at once - callers fall
 * back to per-cell isolation, see docs/PERFORMANCE.md), per-site
 * stats are not supported, and each result's `seconds` is synthetic:
 * the traversal wall time divided evenly across predictors, with the
 * real shared wall time in `groupSeconds` and `sharedTraversal` set
 * (only the aggregate of `seconds` is physically meaningful).
 *
 * When options.kernel is set, the predictors that joined it share
 * their first-level history through the kernel (see
 * SimOptions::kernel) and run as columns of the lane engine,
 * where two-level members with equal configurations share one table
 * (see TraversalStats::foldedMembers), fully-associative machines
 * that differ only in size share one LRU stack
 * (TraversalStats::lruStacks), and set-associative machines of equal
 * set count that differ only in associativity share one set stack
 * (TraversalStats::setStacks); the counters remain bit-identical to
 * the unfused run.
 *
 * Null predictor pointers are not allowed. An empty span returns an
 * empty vector without touching the trace.
 */
std::vector<SimResult>
simulateMany(std::span<IndirectPredictor *const> predictors,
             const Trace &trace, const SimOptions &options = {});

} // namespace ibp

#endif // IBP_SIM_SIMULATOR_HH
