/**
 * @file
 * The cell lifecycle of SuiteRunner::runBatch() (docs/ROBUSTNESS.md,
 * "Cell lifecycle"). A planning pass resolves every (grid, column,
 * benchmark) of the batch into one cell record - restored from the
 * checkpoint journal, poisoned, served from the result store, left to
 * another shard, or pending - then an executor simulates what is
 * pending and one collection writes every cell into its GridResult.
 * Each transition has one function: serveCell(), finishCells() and
 * failCell().
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <thread>

#include "core/simd.hh"
#include "core/sweep_kernel.hh"
#include "robust/fault_injection.hh"
#include "sim/result_store.hh"
#include "sim/suite_runner.hh"
#include "trace/trace_cache.hh"
#include "util/logging.hh"

namespace ibp {

namespace {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** How long a deferred cell waits for its claim owner to persist it
 *  before this runner simulates it anyway (IBP_CLAIM_WAIT seconds;
 *  duplicate simulations are benign, the store write is atomic). */
double
claimWaitCeilingSeconds()
{
    if (const char *env = std::getenv("IBP_CLAIM_WAIT")) {
        const double parsed = std::atof(env);
        if (parsed > 0.0)
            return parsed;
    }
    return 300.0;
}

/**
 * Per-cell deadlines: one slot per pool worker (plus one for off-pool
 * callers, e.g. inline execution when the pool degraded to zero
 * workers) and a thread that cancels attempts past their deadline.
 * The attempt a slot runs is published as an *epoch*: arm() bumps it
 * before setting the deadline, and the watchdog requests cancellation
 * of the epoch it observed, so a request that lands after the attempt
 * finished names a dead epoch and the next attempt ignores it.
 */
class Watchdog
{
    struct Slot
    {
        /** Epoch of the armed attempt, 0 when idle. */
        std::atomic<std::uint64_t> epoch{0};
        std::atomic<std::int64_t> deadlineNs{0};
        CancelToken token;
        /** Owner-thread counter; never reused within a slot. */
        std::uint64_t lastEpoch = 0;
    };

  public:
    /** An armed attempt on the calling worker's slot; destruction
     *  disarms it, so every exit path of the attempt does. */
    class Armed
    {
      public:
        explicit Armed(Slot &slot) : _slot(slot) {}
        Armed(const Armed &) = delete;
        ~Armed()
        {
            _slot.deadlineNs.store(0, std::memory_order_relaxed);
            _slot.epoch.store(0, std::memory_order_release);
            _slot.token.armed = 0;
        }
        CancelToken *token() const { return &_slot.token; }

      private:
        Slot &_slot;
    };

    /** @p budget_ns is the per-cell deadline (0: none, and no
     *  thread). publishedWorkers() is monotonic and a worker's index
     *  is always below it, so slot indexing is stable for the run. */
    Watchdog(unsigned workers, std::int64_t budget_ns)
        : _slots(workers + 1), _workers(workers), _budgetNs(budget_ns)
    {
        if (budget_ns > 0)
            _thread = std::thread([this]() { watch(); });
    }
    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    ~Watchdog()
    {
        if (!_thread.joinable())
            return;
        {
            std::lock_guard<std::mutex> lock(_mutex);
            _stop = true;
        }
        _cv.notify_one();
        _thread.join();
    }

    /** Arm the calling worker's slot with @p cells per-cell budgets
     *  (unarmed without a deadline). Tasks on one worker run
     *  sequentially, so each slot has one owner at a time. */
    Armed
    arm(std::int64_t cells)
    {
        const int index = Executor::currentWorkerIndex();
        Slot &slot = index < 0 || static_cast<unsigned>(index) >= _workers
                         ? _slots[_workers]
                         : _slots[static_cast<unsigned>(index)];
        if (_budgetNs > 0) {
            slot.token.armed = ++slot.lastEpoch;
            slot.epoch.store(slot.token.armed, std::memory_order_release);
            slot.deadlineNs.store(nowNs() + _budgetNs * cells,
                                  std::memory_order_release);
        }
        return Armed(slot);
    }

  private:
    void
    watch()
    {
        std::unique_lock<std::mutex> lock(_mutex);
        while (!_stop) {
            _cv.wait_for(lock, std::chrono::milliseconds(20));
            const std::int64_t now = nowNs();
            for (Slot &slot : _slots) {
                // Consistent (epoch, deadline) snapshot: if the worker
                // swapped attempts between the two epoch reads, skip
                // this tick rather than cancel with a mismatched pair.
                const std::uint64_t e1 =
                    slot.epoch.load(std::memory_order_acquire);
                if (e1 == 0)
                    continue;
                const std::int64_t deadline =
                    slot.deadlineNs.load(std::memory_order_acquire);
                const std::uint64_t e2 =
                    slot.epoch.load(std::memory_order_acquire);
                if (e1 != e2 || deadline == 0 || now < deadline)
                    continue;
                slot.token.requested.store(e1, std::memory_order_relaxed);
            }
        }
    }

    std::vector<Slot> _slots;
    const unsigned _workers;
    const std::int64_t _budgetNs;
    std::mutex _mutex;
    std::condition_variable _cv;
    bool _stop = false;
    std::thread _thread;
};

/** A fresh predictor of @p column; a null factory result is a
 *  permanent error. */
std::unique_ptr<IndirectPredictor>
makePredictor(const SweepColumn *column)
{
    auto predictor = column->make();
    if (!predictor) {
        throw RunException(RunError::permanent(
            "predictor factory for '" + column->label + "' returned null"));
    }
    return predictor;
}

} // namespace

/** One runBatch() call: its cells, and the stages that resolve them. */
class SuiteRunner::BatchRun
{
  private:
    enum class State
    {
        /** To simulate: the fused phase, then the isolated phase if
         *  still pending. A drained run leaves it here, absent from
         *  the grid. */
        Pending,
        /** Another shard's keyed cell, a work-stealing candidate. */
        Foreign,
        /** Claimed by a live peer; resolved by the deferred wait. */
        Deferred,
        /** Has a value: restored, served or simulated. */
        Done,
        Failed,
        /** Not this run's work: another shard's (or the merge
         *  pass's); never simulated, absent from the grid. */
        Left,
    };

    struct Cell
    {
        const SweepColumn *column = nullptr;
        const std::string *benchmark = nullptr;
        /** Index of the cell's column in batch order (plan lookup). */
        std::size_t batchColumn = 0;
        /** Index of the cell's grid within the batch. */
        std::size_t grid = 0;
        /** The grid's session-wide id (journal and fault keys). */
        unsigned gridId = 0;
        State state = State::Pending;
        /** Result-store cell key; empty = don't probe or persist
         *  (store disabled, column unkeyed, or injector armed). */
        std::string storeKey = {};
        /** Set at the acquisition barrier for cells still to run. */
        const Trace *trace = nullptr;
        /** Miss rate of a Done cell. */
        double missPercent = 0.0;
        RunError error = {};
    };

    /** A (chunk, benchmark) task: cell indices per chunk unit. */
    using Units = std::vector<std::vector<std::size_t>>;

  public:
    BatchRun(const SuiteRunner &runner,
             const std::vector<std::vector<SweepColumn>> &grids,
             RunSession &session)
        : _runner(runner), _grids(grids), _session(session),
          _metrics(session.metrics), _journal(session.checkpoint),
          _firstGridId(session.nextGridId), _executor(Executor::global()),
          _plan(planChunks(grids)), _store(ResultStore::global())
    {
        session.nextGridId += static_cast<unsigned>(grids.size());
        _executor.ensureWorkers(simulationThreads());
        if (FaultInjector::global().armed())
            _store = nullptr;
        // Cell keys fold in each benchmark's trace cache key, computable
        // from the name alone (no need to wait for acquisition).
        for (std::size_t b = 0; _store && b < runner._names.size(); ++b) {
            _traceKeys.push_back(benchmarkTraceCacheKey(
                runner._names[b], runner._emitConditionals));
        }
        if (_store != nullptr && session.shardCount > 1 &&
            !runner._names.empty()) {
            _shardActive = true;
            _shardCount = session.shardCount;
            _shardIndex = session.shardIndex % _shardCount;
        }
        _claimsActive = _store != nullptr && session.cellClaims;
    }
    BatchRun(const BatchRun &) = delete;
    BatchRun &operator=(const BatchRun &) = delete;

    /**
     * The planning pass, on the calling thread: one cell per (grid,
     * column, benchmark), in batch order. The store hits it serves are
     * journalled as ONE fsynced batch at the end - a warm grid is all
     * hits, and per-hit fsyncs dominated its time - unless a store-only
     * run misses first, which throws before anything is journalled.
     */
    void
    plan()
    {
        const std::vector<std::string> &names = _runner._names;
        std::size_t columns = 0;
        for (const auto &grid : _grids)
            columns += grid.size();
        _cells.reserve(columns * names.size());
        std::vector<CheckpointCell> served;
        std::size_t batch_column = 0;
        for (std::size_t g = 0; g < _grids.size(); ++g) {
            for (const SweepColumn &column : _grids[g]) {
                for (std::size_t b = 0; b < names.size(); ++b) {
                    Cell &cell = _cells.emplace_back(
                        Cell{&column, &names[b], batch_column, g,
                             _firstGridId + static_cast<unsigned>(g)});
                    planCell(cell, b, served);
                    if (cell.state == State::Pending ||
                        cell.state == State::Foreign)
                        ++_work;
                }
                ++batch_column;
            }
        }
        journalCells(served);
    }

    /** The executor: the fused phase (chunks as their traces land),
     *  the acquisition barrier, the isolated phase, the steal sweep,
     *  then the deferred wait. */
    void
    execute()
    {
        const double deadline =
            _work > 0 ? _session.retry.cellDeadlineSeconds : 0;
        _watchdog.emplace(_executor.publishedWorkers(),
                          static_cast<std::int64_t>(deadline * 1e9));
        const auto start = std::chrono::steady_clock::now();
        runFused();
        resolveTraces();
        runIsolated();
        if (_shardActive && _session.shardSteal)
            stealForeign();
        if (_store != nullptr)
            awaitDeferred();
        _watchdog.reset();
        publishMetrics(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count());
    }

    /** The collection: every resolved cell into its grid. Cells left
     *  pending (drained before they started), deferred, foreign or left
     *  stay absent, exactly like a journal-restored run never saw them. */
    std::vector<GridResult>
    collect() const
    {
        std::vector<GridResult> results(_grids.size());
        for (const Cell &cell : _cells) {
            if (cell.state == State::Done) {
                results[cell.grid].set(cell.column->label, *cell.benchmark,
                                       cell.missPercent);
            } else if (cell.state == State::Failed) {
                results[cell.grid].setFailed(
                    FailedCell{cell.column->label, *cell.benchmark,
                               cell.error.message, cell.error.kind,
                               cell.error.attempts});
            }
        }
        return results;
    }

  private:
    bool
    aborted() const
    {
        return _session.abort != nullptr &&
               _session.abort->load(std::memory_order_acquire);
    }

    void
    planCell(Cell &cell, std::size_t benchmark,
             std::vector<CheckpointCell> &served)
    {
        const SweepColumn &column = *cell.column;
        const std::string &name = *cell.benchmark;
        if (_store && column.specHash != 0) {
            cell.storeKey =
                ResultStore::cellKey(_traceKeys[benchmark], column.specHash);
        }
        // Resume: a journalled cell is restored verbatim, not recomputed
        // (it carries the full-precision miss rate). It is NOT a store
        // hit, but its value is worth persisting so the next journal-less
        // warm run finds it: written back exactly once (contains() guards
        // reruns of the same journal), as an entry without counters.
        // Benchmarks whose acquisition fails are resolved at the
        // acquisition barrier - their cells fail without ever simulating.
        if (_journal) {
            if (const auto restored =
                    _journal->lookup(cell.gridId, column.label, name)) {
                StoredResult entry;
                entry.benchmark = name;
                entry.hasCounters = false;
                entry.missPercent = *restored;
                if (!cell.storeKey.empty() &&
                    !_store->contains(cell.storeKey)) {
                    const auto written = _store->store(cell.storeKey, entry);
                    if (written.ok()) {
                        ++_storeStats.journalWritebacks;
                    } else {
                        warn("result store write-back for %s/%s failed: %s",
                             column.label.c_str(), name.c_str(),
                             written.error().describe().c_str());
                    }
                }
                resolve(cell, entry, true);
                return;
            }
            // Poisoning: a cell with this many start records but no
            // completion killed (or hung) every prior incarnation that
            // tried it. Another attempt would crash-loop the sweep, so it
            // fails as a timeout (docs/ROBUSTNESS.md).
            const unsigned prior =
                _journal->startedCountPrior(cell.gridId, column.label, name);
            if (prior >= _session.retry.poisonThreshold) {
                failCell(cell, RunError{ErrorKind::Timeout,
                                        "cell poisoned: " +
                                            std::to_string(prior) +
                                            " prior incarnations died "
                                            "inside it",
                                        prior});
                return;
            }
        }
        // Shard filter: only the owner shard of the cell's (chunk,
        // benchmark) simulates it; other shards track it as a steal
        // candidate or leave it (the merge pass restores it from the
        // store). Unkeyed cells cannot flow through the store, so every
        // shard leaves them for the merge.
        if (_shardActive) {
            if (cell.storeKey.empty()) {
                cell.state = State::Left;
                return;
            }
            if (shardOwner(benchmark, _plan.chunkOf[cell.batchColumn],
                           _shardCount) != _shardIndex) {
                cell.state =
                    _session.shardSteal ? State::Foreign : State::Left;
                return;
            }
        }
        // Warm probe: a keyed cell whose inputs (trace key x spec hash x
        // simulator version x table impl) match a stored entry is loaded
        // instead of simulated. A quarantined entry counts as invalidated
        // and the cell re-simulates. A missed cell is claimed only when
        // its task starts (claimCells), so a run holds claims on the
        // cells it is computing, not on the whole batch.
        if (!cell.storeKey.empty()) {
            const auto loaded = _store->load(cell.storeKey);
            if (loaded.status == ResultStore::LoadStatus::Hit) {
                ++_storeStats.hits;
                serveCell(cell, loaded.result, served);
                return;
            }
            if (loaded.status == ResultStore::LoadStatus::Invalidated)
                ++_storeStats.invalidated;
            else
                ++_storeStats.misses;
        }
        if (_session.storeOnly) {
            // The miss ends the run, but its trace acquisition is still
            // reported: a daemon tells a warm job from a cold one by it.
            if (_metrics)
                _runner.publishTraceSource(*_metrics);
            throw StoreOnlyMiss();
        }
    }

    /**
     * Serve a cell from a stored entry: the warm probe, a claim's
     * re-probe, or the deferred wait. The stored integer counters make
     * the restored miss rate bit-identical to a cold computation. Its
     * journal record goes to @p records, which the caller writes as one
     * batch: served cells are journalled like any finished cell, so a
     * drained-and-resumed sweep stays coherent.
     */
    void
    serveCell(Cell &cell, const StoredResult &stored,
              std::vector<CheckpointCell> &records)
    {
        records.push_back(CheckpointCell{cell.gridId, cell.column->label,
                                         *cell.benchmark, stored.missPercent});
        resolve(cell, stored, true);
    }

    /**
     * Finish freshly simulated cells (a fused chunk's members, or one
     * isolated cell). Their store entries and journal records are each
     * written as one durable batch before the claims in @p held are
     * released and the cells resolve - so a peer that wins a claim next
     * finds the entry instead of re-simulating. A full disk degrades the
     * store, never the run.
     */
    void
    finishCells(const std::vector<std::size_t> &members,
                const std::vector<SimResult> &results, CellClaims &held)
    {
        std::vector<StoredResult> stored;
        stored.reserve(members.size());
        std::vector<ResultStore::Entry> entries;
        std::vector<const Cell *> keyed;
        std::vector<CheckpointCell> records;
        for (std::size_t i = 0; i < members.size(); ++i) {
            const Cell &cell = _cells[members[i]];
            const SimResult &result = results[i];
            stored.push_back(StoredResult{
                .benchmark = *cell.benchmark,
                .predictor = {},
                .hasCounters = true,
                .branches = result.branches,
                .misses = result.misses,
                .noPrediction = result.noPrediction,
                .tableOccupancy = result.tableOccupancy,
                .tableCapacity = result.tableCapacity,
                .seconds = result.seconds,
                .groupSeconds = result.groupSeconds,
                .sharedTraversal = result.sharedTraversal,
                .missPercent = result.missPercent()});
            if (_store && !cell.storeKey.empty()) {
                // Only store entries carry the (informational)
                // predictor name: a copy for every cell raised the
                // full fig17 grid's peak RSS by about 2 MB.
                entries.push_back({cell.storeKey, stored.back()});
                entries.back().result.predictor = result.predictor;
                keyed.push_back(&cell);
            }
            if (_journal) {
                records.push_back(CheckpointCell{cell.gridId,
                                                 cell.column->label,
                                                 *cell.benchmark,
                                                 stored.back().missPercent});
            }
        }
        if (_store) {
            const auto written = _store->storeAll(entries);
            for (std::size_t e = 0; e < written.size(); ++e) {
                if (written[e].ok()) {
                    count(_storeStats, &ResultStoreStats::stores);
                    continue;
                }
                warn("result store write for %s/%s failed: %s",
                     keyed[e]->column->label.c_str(),
                     keyed[e]->benchmark->c_str(),
                     written[e].error().describe().c_str());
            }
        }
        journalCells(records);
        held.release();
        for (std::size_t i = 0; i < members.size(); ++i)
            resolve(_cells[members[i]], stored[i], false);
    }

    /** Fail a cell: poisoned, its trace never materialised, or its
     *  isolated attempts were exhausted. */
    void
    failCell(Cell &cell, RunError error)
    {
        cell.state = State::Failed;
        cell.error = std::move(error);
        if (_metrics) {
            _metrics->recordFailure(FailureRecord{
                cell.column->label, *cell.benchmark, cell.error.message,
                errorKindName(cell.error.kind), cell.error.attempts});
        }
        if (_session.onCellFinished)
            _session.onCellFinished();
    }

    /** A cell now holds its value (thread-safe: each cell belongs to one
     *  task). Its telemetry - one record per cell, never inside the
     *  per-branch loop - comes from its store form @p result, so a
     *  served cell replays exactly what its computation recorded. */
    void
    resolve(Cell &cell, const StoredResult &result, bool served)
    {
        cell.state = State::Done;
        cell.missPercent = result.missPercent;
        if (_metrics && result.hasCounters) {
            const CellMetrics metrics{
                .column = cell.column->label,
                .benchmark = *cell.benchmark,
                .branches = result.branches,
                .seconds = result.seconds,
                .groupSeconds = result.groupSeconds,
                .secondsSynthetic = result.sharedTraversal,
                .tableOccupancy = result.tableOccupancy,
                .tableCapacity = result.tableCapacity};
            if (served)
                _metrics->recordStoredCell(metrics);
            else
                _metrics->recordCell(metrics);
        }
        if (_session.onCellFinished)
            _session.onCellFinished();
    }

    /**
     * The fused phase (opportunistic): feed each planned chunk's
     * pending columns of a benchmark from ONE trace traversal with a
     * fused sweep kernel, each chunk becoming runnable the moment its
     * trace lands (onTraceReady continuation -> executor task). Chunks
     * of every grid of the batch share this one pass: there is no
     * barrier between grids. Skipped when the fault injector arms the
     * "sim" site - those faults are per-cell by construction - while
     * the dedicated "fused" site injects into this phase to test the
     * fallback. Any failure inside a chunk leaves its cells pending
     * for the isolated phase, which re-runs them under the full
     * per-cell retry/deadline isolation. Results are bit-identical
     * either way (see simulateMany()).
     */
    void
    runFused()
    {
        if (_work == 0)
            return;
        // Foreign cells run only through the steal sweep.
        const std::vector<Units> groups = groupTasks(State::Pending);
        if (FaultInjector::global().armedFor("sim")) {
            _sweep.fallbackInjectorArmed =
                static_cast<unsigned>(groups.size());
            return;
        }
        Executor::Batch batch(_executor);
        // Acquisition slot index of each benchmark name (first occurrence
        // wins, matching finishAcquire).
        std::map<std::string, std::size_t> name_index;
        for (std::size_t i = 0; i < _runner._names.size(); ++i)
            name_index.try_emplace(_runner._names[i], i);
        for (const Units &units : groups) {
            const std::size_t index =
                name_index.at(*_cells[units.front().front()].benchmark);
            // defer() reserves the chunk in the batch before the trace
            // exists, so batch.wait() cannot return while any chunk is
            // still gated on acquisition.
            batch.defer();
            _runner.onTraceReady(index, [this, &batch,
                                         units](const Trace *trace) {
                if (trace == nullptr) {
                    // Acquisition failed; the cells fail at the barrier.
                    batch.cancelDeferred();
                    return;
                }
                batch.spawnDeferred([this, &batch, trace, units]() {
                    runChunk(batch, trace, units, false);
                });
            });
        }
        batch.wait();
    }

    /** Acquisition barrier: the isolated phase (and failed-trace
     *  resolution) needs every outcome, not just the ones the fused
     *  phase consumed. */
    void
    resolveTraces()
    {
        _runner.waitAcquisition();
        for (Cell &cell : _cells) {
            if (cell.state != State::Pending && cell.state != State::Foreign &&
                cell.state != State::Deferred)
                continue;
            const auto failed = _runner._failedTraces.find(*cell.benchmark);
            if (failed == _runner._failedTraces.end()) {
                cell.trace = &_runner._traces.at(*cell.benchmark);
            } else if (cell.state == State::Foreign) {
                // Never this shard's work: unstealable, without charging
                // this shard a failure record or a progress tick.
                cell.state = State::Left;
            } else {
                // A benchmark whose trace never materialised fails every
                // cell up front - no point retrying the simulation.
                RunError error = failed->second;
                error.message = error.describe();
                failCell(cell, std::move(error));
            }
        }
    }

    /** The isolated phase: per-cell isolation for every cell still
     *  pending. */
    void
    runIsolated()
    {
        Executor::Batch batch(_executor);
        for (std::size_t c = 0; c < _cells.size(); ++c) {
            if (_cells[c].state != State::Pending)
                continue;
            batch.spawn([this, c]() {
                // Draining: leave the cell unstarted (not failed), so the
                // resumed run picks it up.
                if (!aborted())
                    claimAndAttempt(c);
            });
        }
        batch.wait();
    }

    /**
     * Steal sweep: with our own partition done, run the foreign (chunk,
     * benchmark) tasks whose owner shard has not reached them (it
     * crashed, or is simply slower), fused like our own. A thief takes
     * only the cells nobody has stored or claimed, so a live owner
     * mid-task is never duplicated; a stolen cell's store entry is what
     * the merge pass (and the owner's own claim re-probe) serves. A
     * worker pops its own queue newest first (Executor), so an owner,
     * whose tasks were queued in plan order, works from the end of its
     * plan; queued in reverse, a thief's tasks run from the start, and
     * the two meet instead of racing for the same task.
     */
    void
    stealForeign()
    {
        const std::vector<Units> foreign = groupTasks(State::Foreign);
        Executor::Batch batch(_executor);
        for (auto task = foreign.rbegin(); task != foreign.rend(); ++task) {
            const Trace *trace = _cells[task->front().front()].trace;
            batch.spawn([this, &batch, trace, units = *task]() {
                runChunk(batch, trace, units, true);
            });
        }
        batch.wait();
    }

    /**
     * Deferred wait: cells another claimant was computing when we tried
     * to claim them. Poll the store (the owner persists there), and retry
     * the claim each round - acquiring it means the owner gave up
     * (drained, crashed) without storing, making the cell ours. Past the
     * wait ceiling, simulate regardless: a duplicate simulation is benign
     * (atomic store writes), a grid hole is not.
     */
    void
    awaitDeferred()
    {
        std::vector<std::size_t> waiting;
        for (std::size_t c = 0; c < _cells.size(); ++c) {
            if (_cells[c].state == State::Deferred)
                waiting.push_back(c);
        }
        const auto give_up_at =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(claimWaitCeilingSeconds()));
        bool force = false;
        while (!waiting.empty() && !aborted()) {
            std::vector<std::size_t> still;
            std::vector<CheckpointCell> served;
            for (const std::size_t c : waiting) {
                Cell &cell = _cells[c];
                const auto loaded = _store->load(cell.storeKey);
                if (loaded.status == ResultStore::LoadStatus::Hit) {
                    // The owner delivered: one simulation, N consumers.
                    count(_storeStats, &ResultStoreStats::claimServed);
                    serveCell(cell, loaded.result, served);
                } else if (force) {
                    CellClaims unclaimed;
                    attemptCell(c, unclaimed);
                } else {
                    claimAndAttempt(c);
                    if (cell.state == State::Deferred)
                        still.push_back(c);
                }
            }
            journalCells(served);
            waiting = std::move(still);
            if (waiting.empty())
                break;
            if (std::chrono::steady_clock::now() >= give_up_at) {
                force = true;
                continue;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
    }

    /**
     * One fused chunk task: claim its cells, build the members'
     * predictors, bind them to a kernel, run the shared traversal, finish
     * the cells. Split-off halves re-enter it through @p batch. A
     * stealing task runs another shard's (chunk, benchmark) task. Any
     * failure leaves the cells pending (a thief's cells stay foreign)
     * and releases their claims for the isolated phase to retake.
     */
    void
    runChunk(Executor::Batch &batch, const Trace *trace, Units units,
             bool stealing)
    {
        // Draining: leave the chunk's cells pending; the isolated phase
        // skips them again, so they stay unstarted for the resumed run.
        if (aborted())
            return;
        // Split-on-idle: while other workers are parked, hand them half
        // of this chunk's units. Each half fuses independently; per-column
        // results do not depend on chunk composition, and splitting only
        // between units never duplicates a machine.
        while (units.size() > 1 && _executor.idleWorkers() > 0) {
            const std::size_t keep = units.size() / 2;
            Units given(std::make_move_iterator(
                            units.begin() + static_cast<std::ptrdiff_t>(keep)),
                        std::make_move_iterator(units.end()));
            units.resize(keep);
            batch.spawn([this, &batch, trace, stealing,
                         given = std::move(given)]() mutable {
                runChunk(batch, trace, std::move(given), stealing);
            });
        }
        std::vector<std::size_t> members;
        for (const auto &unit : units)
            members.insert(members.end(), unit.begin(), unit.end());

        const Cell &lead = _cells[members.front()];
        try {
            FaultInjector::global().check(
                "fused", std::to_string(lead.gridId) + "/" + *lead.benchmark);
        } catch (const RunException &) {
            count(_sweep, &SweepKernelStats::fallbackInjected);
            return;
        }

        CellClaims held = _claimsActive || stealing ? _store->claims()
                                                    : CellClaims{};
        members = claimCells(members, held, stealing);
        if (members.empty())
            return;

        journalStarts(members);

        std::vector<std::unique_ptr<IndirectPredictor>> predictors;
        std::vector<IndirectPredictor *> raw;
        try {
            for (const std::size_t c : members) {
                predictors.push_back(makePredictor(_cells[c].column));
                raw.push_back(predictors.back().get());
            }
        } catch (...) {
            count(_sweep, &SweepKernelStats::fallbackFactory);
            return;
        }
        SweepKernel kernel;
        for (IndirectPredictor *predictor : raw)
            kernel.tryJoin(*predictor);
        kernel.finalize();
        TraversalStats traversal;
        std::vector<SimResult> results;
        try {
            // The whole-chunk deadline is the sum of the per-cell budgets
            // it replaces.
            const auto armed =
                _watchdog->arm(static_cast<std::int64_t>(members.size()));
            SimOptions options;
            options.cancel = armed.token();
            options.kernel = &kernel;
            options.traversal = &traversal;
            results = simulateMany(raw, *trace, options);
        } catch (const RunException &exception) {
            count(_sweep, exception.error().kind == ErrorKind::Timeout
                              ? &SweepKernelStats::fallbackCancelled
                              : &SweepKernelStats::fallbackError);
            return;
        } catch (...) {
            count(_sweep, &SweepKernelStats::fallbackError);
            return;
        }
        finishCells(members, results, held);
        if (stealing) {
            count(_storeStats, &ResultStoreStats::stolen, members.size());
        } else {
            countClaimed(members);
        }
        tallyTraversal(kernel, traversal);
    }

    /** Add @p n to one telemetry counter (thread-safe). */
    template <typename Stats>
    void
    count(Stats &stats, unsigned Stats::*field, std::size_t n = 1)
    {
        std::lock_guard<std::mutex> lock(_telemetryMutex);
        stats.*field += static_cast<unsigned>(n);
    }

    void
    tallyTraversal(const SweepKernel &kernel, const TraversalStats &traversal)
    {
        std::lock_guard<std::mutex> lock(_telemetryMutex);
        ++_sweep.groupsFused;
        _sweep.predictorsBound += kernel.joinedPredictors();
        _sweep.predictorsUnbound += kernel.declinedPredictors();
        _sweep.predictorsDeduped += traversal.foldedMembers;
        _simd.columnarBlocks += traversal.columnarBlocks;
        _simd.skippedRecords += traversal.skippedRecords;
        _simd.laneColumns += traversal.laneColumns;
        _simd.genericColumns += traversal.genericColumns;
        _simd.laneMachines += traversal.laneMachines;
        _simd.lruStacks += traversal.lruStacks;
        _simd.stackedMembers += traversal.stackedMembers;
        _simd.setStacks += traversal.setStacks;
        _simd.setStackedMembers += traversal.setStackedMembers;
    }

    /**
     * Claim a task's keyed cells (claims on) just before it simulates
     * them, into @p held: a cell a live peer holds is deferred (counted
     * once, when it first turns deferred) and served from the store once
     * the peer persists it (the cross-shard / cross-request exactly-once
     * path); a cell the previous owner persisted between our probe and
     * this claim is served right away. A thief (@p stealing) instead just
     * skips foreign cells that are stored or claimed: they stay their
     * owner's. Returns the members left to simulate. Safe from worker
     * threads: each cell belongs to one task.
     */
    std::vector<std::size_t>
    claimCells(const std::vector<std::size_t> &members, CellClaims &held,
               bool stealing)
    {
        if (!_claimsActive && !stealing)
            return members;
        std::vector<std::size_t> mine;
        std::vector<CheckpointCell> served;
        for (const std::size_t c : members) {
            Cell &cell = _cells[c];
            if (cell.storeKey.empty()) {
                mine.push_back(c);
                continue;
            }
            if (stealing) {
                if (!_store->contains(cell.storeKey) &&
                    held.tryClaim(cell.storeKey) &&
                    !_store->contains(cell.storeKey)) {
                    mine.push_back(c);
                }
                continue;
            }
            if (!held.tryClaim(cell.storeKey)) {
                if (cell.state != State::Deferred) {
                    cell.state = State::Deferred;
                    count(_storeStats, &ResultStoreStats::claimBusy);
                }
                continue;
            }
            const auto raced = _store->load(cell.storeKey);
            if (raced.status == ResultStore::LoadStatus::Hit) {
                count(_storeStats, &ResultStoreStats::claimServed);
                serveCell(cell, raced.result, served);
                continue;
            }
            mine.push_back(c);
        }
        journalCells(served);
        return mine;
    }

    /** The isolated phase and the deferred wait: claim one cell, then
     *  attempt it under per-cell isolation unless the claim served or
     *  deferred it. */
    void
    claimAndAttempt(std::size_t c)
    {
        CellClaims held = _claimsActive ? _store->claims() : CellClaims{};
        if (claimCells({c}, held, false).empty())
            return;
        attemptCell(c, held);
        countClaimed({c});
    }

    /**
     * One isolated cell attempt: the full per-cell machinery (journal
     * start records, retry policy, watchdog deadline, fault injection),
     * then the cell finishes like a one-member chunk, releasing @p held
     * once it is persisted.
     */
    void
    attemptCell(std::size_t c, CellClaims &held)
    {
        Cell &cell = _cells[c];
        const std::string fault_key = std::to_string(cell.gridId) + "/" +
                                      cell.column->label + "/" +
                                      *cell.benchmark;
        // Attempts of dead incarnations count: seeding the fault-injection
        // attempt with the journalled start count lets a deterministic
        // injected crash/hang clear when a fresh process retries the cell.
        const unsigned prior_starts =
            _journal ? _journal->startedCountPrior(
                           cell.gridId, cell.column->label, *cell.benchmark)
                     : 0;
        auto outcome = runWithRetries(_session.retry, [&](unsigned attempt) {
            journalStarts({c});
            const auto armed = _watchdog->arm(1);
            FaultInjector::global().check("sim", fault_key,
                                          prior_starts + attempt);
            const auto predictor = makePredictor(cell.column);
            SimOptions options;
            options.cancel = armed.token();
            return simulate(*predictor, *cell.trace, options);
        });
        if (!outcome.ok()) {
            failCell(cell, outcome.error());
            return;
        }
        finishCells({c}, {std::move(outcome).value()}, held);
    }

    /** Claimed cells this run simulated, counted once they finish. */
    void
    countClaimed(const std::vector<std::size_t> &members)
    {
        if (!_claimsActive)
            return;
        for (const std::size_t c : members) {
            if (_cells[c].state == State::Done && !_cells[c].storeKey.empty())
                count(_storeStats, &ResultStoreStats::claims);
        }
    }

    /** Completion records as ONE fsynced journal batch. Safe from worker
     *  threads. */
    void
    journalCells(const std::vector<CheckpointCell> &records)
    {
        if (!_journal || records.empty())
            return;
        const auto appended = _journal->appendCells(records);
        if (!appended.ok()) {
            warn("checkpoint append of %zu cells failed: %s", records.size(),
                 appended.error().describe().c_str());
        }
    }

    /** Start records of cells about to simulate, as one fsynced batch: if
     *  the process dies inside the traversal, the resuming run knows which
     *  cells were in flight (and poisons a cell that keeps killing it). */
    void
    journalStarts(const std::vector<std::size_t> &members)
    {
        if (!_journal)
            return;
        std::vector<CheckpointStart> starts;
        for (const std::size_t c : members) {
            starts.push_back(CheckpointStart{
                _cells[c].gridId, _cells[c].column->label,
                *_cells[c].benchmark});
        }
        const auto marked = _journal->appendStarts(starts);
        if (!marked.ok()) {
            warn("checkpoint start append of %zu cells failed: %s",
                 starts.size(), marked.error().describe().c_str());
        }
    }

    /** The cells in @p state, one group per (chunk, benchmark) task in
     *  order of first appearance, each sorted into the chunk's units
     *  (split points). */
    std::vector<Units>
    groupTasks(State state) const
    {
        std::vector<Units> groups;
        std::map<std::pair<std::string, std::size_t>, std::size_t> group_of;
        for (std::size_t c = 0; c < _cells.size(); ++c) {
            if (_cells[c].state != state)
                continue;
            const std::size_t chunk = _plan.chunkOf[_cells[c].batchColumn];
            const auto [it, fresh] = group_of.try_emplace(
                std::make_pair(*_cells[c].benchmark, chunk), groups.size());
            if (fresh)
                groups.emplace_back(_plan.chunks[chunk].units.size());
            groups[it->second][_plan.unitOf[_cells[c].batchColumn]]
                .push_back(c);
        }
        for (Units &units : groups) {
            std::erase_if(units, [](const std::vector<std::size_t> &unit) {
                return unit.empty();
            });
        }
        return groups;
    }

    void
    publishMetrics(double seconds)
    {
        if (!_metrics)
            return;
        _metrics->recordThreads(std::max(
            1u, static_cast<unsigned>(std::min<std::size_t>(
                    _executor.workerCount(), _work))));
        _metrics->recordRunWindow(seconds);
        _runner.publishTraceSource(*_metrics);
        // Fused-path observability, mirroring trace_source: how many
        // chunks the fused engine served and why any fell back.
        if (_work > 0) {
            _sweep.groupsPerCell = _sweep.fallbackFactory +
                                   _sweep.fallbackCancelled +
                                   _sweep.fallbackInjected +
                                   _sweep.fallbackError +
                                   _sweep.fallbackInjectorArmed;
            _metrics->recordSweepKernel(_sweep);
        }
        // SIMD/SoA observability: the process-wide dispatch level is
        // always worth recording; the traversal counters are summed over
        // the fused chunks (zero for per-cell runs, itself informative).
        _simd.dispatchLevel = simdLevelName(simdLevel());
        _simd.fallbackReason = simdFallbackReason();
        _metrics->recordSimd(_simd);
        // Result-store observability: recorded whenever the store was
        // armed for this run (even an all-miss cold pass), so the CI
        // warm-store gate can assert hits == cells with zero misses.
        if (_store)
            _metrics->recordResultStore(_storeStats);
    }

    const SuiteRunner &_runner;
    const std::vector<std::vector<SweepColumn>> &_grids;
    RunSession &_session;
    RunMetrics *const _metrics;
    CheckpointJournal *const _journal;
    const unsigned _firstGridId;
    Executor &_executor;
    const ChunkPlan _plan;

    // Content-addressed result store (docs/PERFORMANCE.md): keyed
    // columns probe it before simulating and persist what they
    // compute. An armed fault injector bypasses the store wholesale -
    // injected faults must reach a real simulation, and a faulted run
    // must never pollute the store. Shard fan-out and cell claims
    // both communicate through the store; without one they degrade to
    // a plain full run (see the RunSession field docs).
    ResultStore *_store;
    bool _shardActive = false;
    unsigned _shardCount = 1;
    unsigned _shardIndex = 0;
    bool _claimsActive = false;

    /** Each benchmark's trace cache key (store armed only). */
    std::vector<std::string> _traceKeys;
    std::vector<Cell> _cells;
    /** Cells the executor may run: pending and foreign ones. */
    std::size_t _work = 0;
    /** Per-cell deadlines while the executor runs. */
    std::optional<Watchdog> _watchdog;

    // Telemetry (metrics.result_store, .sweep_kernel and .simd),
    // counted under one mutex: chunks and cells run concurrently. A
    // "group" here is one fused chunk.
    std::mutex _telemetryMutex;
    ResultStoreStats _storeStats;
    SweepKernelStats _sweep;
    SimdStats _simd;
};

std::vector<GridResult>
SuiteRunner::runBatch(const std::vector<std::vector<SweepColumn>> &grids,
                      RunSession &session) const
{
    BatchRun run(*this, grids, session);
    run.plan();
    run.execute();
    return run.collect();
}

} // namespace ibp
