#include "sim/suite_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <numeric>
#include <set>
#include <system_error>
#include <thread>

#include "core/simd.hh"
#include "core/sweep_kernel.hh"
#include "core/table_spec.hh"
#include "robust/fault_injection.hh"
#include "sim/result_store.hh"
#include "trace/trace_cache.hh"
#include "util/logging.hh"
#include "util/stats.hh"

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

} // namespace

ChunkPlan
planChunks(const std::vector<std::vector<SweepColumn>> &grids)
{
    std::vector<const SweepColumn *> columns;
    std::vector<std::size_t> grid_of;
    for (std::size_t g = 0; g < grids.size(); ++g) {
        for (const SweepColumn &column : grids[g]) {
            columns.push_back(&column);
            grid_of.push_back(g);
        }
    }
    const std::size_t count = columns.size();
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);

    // Union-find over batch columns, joined through shared machines
    // and through stack-mates (stackMates(): the lane engine runs
    // those as one stack); a root is always its component's first
    // column.
    std::vector<std::size_t> parent(count);
    std::iota(parent.begin(), parent.end(), std::size_t{0});
    const auto find = [&parent](std::size_t c) {
        while (parent[c] != c) {
            parent[c] = parent[parent[c]];
            c = parent[c];
        }
        return c;
    };
    const auto join = [&find, &parent](std::size_t a, std::size_t b) {
        a = find(a);
        b = find(b);
        parent[std::max(a, b)] = std::min(a, b);
    };
    std::vector<const TwoLevelConfig *> machines;
    std::vector<std::size_t> first_user;
    // Per machine: whether it has a stack-mate, and its stack's first
    // machine (mates are an equivalence, so the first mate found is
    // that machine).
    std::vector<bool> stacked;
    std::vector<std::size_t> stack_of;
    for (std::size_t c = 0; c < count; ++c) {
        for (const TwoLevelConfig &config : columns[c]->machines) {
            std::size_t m = 0;
            while (m < machines.size() && !(*machines[m] == config))
                ++m;
            if (m < machines.size()) {
                join(c, first_user[m]);
                continue;
            }
            machines.push_back(&config);
            first_user.push_back(c);
            stacked.push_back(false);
            stack_of.push_back(m);
            for (std::size_t mate = 0; mate + 1 < machines.size(); ++mate) {
                if (stackMates(*machines[mate], config)) {
                    join(c, first_user[mate]);
                    stacked[mate] = true;
                    stacked[m] = true;
                    stack_of[m] = mate;
                    break;
                }
            }
        }
    }

    // Per-component table bytes and placement, at the root. Sized
    // components (every table bounded, none in an LRU stack) pack
    // first-fit under the cap; one holding an LRU stack gets a chunk
    // of its own. Components the planner cannot size by bytes - one
    // with an unbounded table, or an opaque column (no machines, so
    // never joined: its own root) - join their grid's one chunk, a
    // unit each, so a grid of them stays one traversal. So does all
    // of a one-grid batch: packed under the cap, its equal-size
    // components would each take a traversal. Neither unsized kind
    // sets the cap. A set stack is as deep as its largest member, so
    // it counts that member's table bytes and raises the cap no
    // higher than the member alone would.
    enum class Place { Packed, OwnChunk, GridChunk };
    std::vector<Place> place(count);
    for (std::size_t c = 0; c < count; ++c) {
        place[c] = grids.size() == 1 || columns[c]->machines.empty()
                       ? Place::GridChunk
                       : Place::Packed;
    }
    std::vector<std::uint64_t> bytes(count, 0);
    std::vector<std::uint64_t> stack_entries(machines.size(), 0);
    for (std::size_t m = 0; m < machines.size(); ++m) {
        const std::size_t root = find(first_user[m]);
        const TableSpec &table = machines[m]->table;
        std::uint64_t entries = table.entries;
        if (stacked[m] && table.kind == TableKind::SetAssoc) {
            std::uint64_t &deepest = stack_entries[stack_of[m]];
            entries = std::max(deepest, entries) - deepest;
            deepest += entries;
        }
        bytes[root] += entries * sizeof(TableEntry);
        if (table.kind == TableKind::Unconstrained)
            place[root] = Place::GridChunk;
        else if (stacked[m] && table.kind == TableKind::FullyAssoc &&
                 place[root] == Place::Packed)
            place[root] = Place::OwnChunk;
    }
    std::uint64_t capacity = 0;
    for (std::size_t c = 0; c < count; ++c) {
        if (find(c) == c && place[c] == Place::Packed)
            capacity = std::max(capacity, bytes[c]);
    }

    ChunkPlan plan;
    plan.chunkOf.assign(count, kNone);
    plan.unitOf.assign(count, kNone);
    std::vector<std::size_t> root_chunk(count, kNone);
    std::vector<std::size_t> root_unit(count, kNone);
    std::map<std::size_t, std::size_t> grid_chunk; // grid -> chunk
    for (std::size_t c = 0; c < count; ++c) {
        const std::size_t root = find(c);
        if (root_chunk[root] == kNone) {
            std::size_t target = kNone;
            if (place[root] == Place::Packed) {
                for (std::size_t k = 0; k < plan.chunks.size(); ++k) {
                    if (plan.chunks[k].packable &&
                        plan.chunks[k].bytes + bytes[root] <= capacity) {
                        target = k;
                        break;
                    }
                }
            } else if (place[root] == Place::GridChunk) {
                const auto it = grid_chunk.find(grid_of[root]);
                if (it != grid_chunk.end())
                    target = it->second;
            }
            if (target == kNone) {
                target = plan.chunks.size();
                plan.chunks.emplace_back();
                plan.chunks.back().packable = place[root] == Place::Packed;
                if (place[root] == Place::GridChunk)
                    grid_chunk[grid_of[root]] = target;
            }
            ChunkPlan::Chunk &chunk = plan.chunks[target];
            root_chunk[root] = target;
            root_unit[root] = chunk.units.size();
            chunk.units.emplace_back();
            chunk.bytes += bytes[root];
        }
        ChunkPlan::Chunk &chunk = plan.chunks[root_chunk[root]];
        plan.chunkOf[c] = root_chunk[root];
        plan.unitOf[c] = root_unit[root];
        chunk.units[root_unit[root]].push_back(c);
    }
    return plan;
}

void
GridResult::set(const std::string &column, const std::string &benchmark,
                double miss_percent)
{
    _rates[column][benchmark] = miss_percent;
}

double
GridResult::get(const std::string &column,
                const std::string &benchmark) const
{
    const auto col = _rates.find(column);
    IBP_ASSERT(col != _rates.end(), "unknown column '%s'",
               column.c_str());
    const auto cell = col->second.find(benchmark);
    IBP_ASSERT(cell != col->second.end(),
               "column '%s' has no benchmark '%s'", column.c_str(),
               benchmark.c_str());
    return cell->second;
}

bool
GridResult::has(const std::string &column,
                const std::string &benchmark) const
{
    const auto col = _rates.find(column);
    return col != _rates.end() &&
           col->second.find(benchmark) != col->second.end();
}

void
GridResult::setFailed(FailedCell cell)
{
    _failures.push_back(std::move(cell));
}

std::size_t
GridResult::presentCount(const std::string &column,
                         const std::vector<std::string> &members) const
{
    std::size_t count = 0;
    for (const auto &member : members) {
        if (has(column, member))
            ++count;
    }
    return count;
}

double
GridResult::average(const std::string &column,
                    const std::vector<std::string> &members) const
{
    // Partial grids average what survived: failed members are
    // skipped rather than poisoning the group. Callers that must
    // not silently degrade check presentCount() first.
    std::vector<double> rates;
    rates.reserve(members.size());
    for (const auto &member : members) {
        if (has(column, member))
            rates.push_back(get(column, member));
    }
    if (rates.empty())
        return std::numeric_limits<double>::quiet_NaN();
    return mean(rates);
}

SuiteRunner::SuiteRunner(std::vector<std::string> benchmarks,
                         bool emit_conditionals)
    : _names(std::move(benchmarks)),
      _emitConditionals(emit_conditionals)
{
    // An unknown benchmark name is a startup configuration error and
    // must fatal() on the calling thread, not inside a pool task.
    for (const auto &name : _names)
        benchmarkProfile(name);

    _acquireStart = std::chrono::steady_clock::now();
    _acquire.resize(_names.size());
    _acquireRemaining = _names.size();

    Executor &executor = Executor::global();
    executor.ensureWorkers(simulationThreads());
    _acquireBatch = std::make_unique<Executor::Batch>(executor);

    const RetryPolicy policy = retryPolicyFromEnv();
    TraceCache *cache = TraceCache::global();
    // Snapshot the injector BY VALUE: acquisition outlives this
    // constructor, and tests re-arm the global right after it
    // returns - the tasks must keep the configuration they were
    // spawned under.
    const FaultInjector injector = FaultInjector::global();

    for (std::size_t i = 0; i < _names.size(); ++i) {
        _acquireBatch->spawn([this, i, emit_conditionals, policy,
                              cache, injector]() {
            const std::string &name = _names[i];
            const auto generate = [&]() -> Result<Trace> {
                return runWithRetries(policy, [&](unsigned attempt) {
                    injector.check("trace", name, attempt);
                    return generateBenchmarkTrace(name,
                                                  emit_conditionals);
                });
            };
            if (cache) {
                // getOrGenerate coordinates concurrent callers of
                // the same cold key (one generation, everyone else
                // loads the stored entry) - load-or-generate-store
                // would duplicate work the moment two daemon
                // clients, or two runners in one process, race on a
                // cold cache.
                const std::string key =
                    benchmarkTraceCacheKey(name, emit_conditionals);
                auto acquired =
                    cache->getOrGenerate(key, generate, name);
                if (!acquired.ok()) {
                    finishAcquire(i, false, false, Trace{},
                                  acquired.error());
                    return;
                }
                const bool from_cache = acquired.value().fromCache;
                finishAcquire(i, true, from_cache,
                              std::move(acquired.value().trace),
                              RunError{});
                return;
            }
            auto made = generate();
            if (!made.ok()) {
                finishAcquire(i, false, false, Trace{}, made.error());
                return;
            }
            finishAcquire(i, true, false, std::move(made).value(),
                          RunError{});
        });
    }
}

SuiteRunner::~SuiteRunner()
{
    // _acquireBatch is the first-destroyed member and its destructor
    // waits, but be explicit: no acquisition task may outlive the
    // members it writes to.
    if (_acquireBatch)
        _acquireBatch->wait();
}

void
SuiteRunner::finishAcquire(std::size_t index, bool ok, bool from_cache,
                           Trace trace, const RunError &error)
{
    const std::string &name = _names[index];
    std::vector<std::function<void(const Trace *)>> continuations;
    const Trace *published = nullptr;
    {
        std::lock_guard<std::mutex> lock(_acquireMutex);
        if (ok) {
            if (from_cache) {
                ++_traceStats.cacheHits;
                if (trace.readPath() == TraceReadPath::Mmap)
                    ++_traceStats.mmapHits;
                else
                    ++_traceStats.streamHits;
            } else {
                ++_traceStats.generated;
            }
            // std::map nodes are pointer-stable, so handing the
            // address to continuations is safe for the runner's
            // lifetime (duplicate names keep the first trace).
            const auto [it, inserted] =
                _traces.emplace(name, std::move(trace));
            published = &it->second;
        } else {
            warn("trace generation for '%s' failed: %s", name.c_str(),
                 error.describe().c_str());
            _failedTraces.emplace(name, error);
        }
        AcquireSlot &slot = _acquire[index];
        slot.done = true;
        slot.trace = published;
        continuations.swap(slot.continuations);
        if (--_acquireRemaining == 0) {
            _traceStats.seconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - _acquireStart)
                    .count();
        }
    }
    _acquireCv.notify_all();
    // Continuations run outside the lock: they spawn simulation work
    // (SuiteRunner::run overlapping with acquisition) and must not
    // hold up other finishing tasks.
    for (auto &continuation : continuations)
        continuation(published);
}

void
SuiteRunner::onTraceReady(
    std::size_t index,
    std::function<void(const Trace *)> continuation) const
{
    const Trace *published = nullptr;
    {
        std::lock_guard<std::mutex> lock(_acquireMutex);
        AcquireSlot &slot = _acquire[index];
        if (!slot.done) {
            slot.continuations.push_back(std::move(continuation));
            return;
        }
        published = slot.trace;
    }
    continuation(published);
}

void
SuiteRunner::waitAcquisition() const
{
    std::unique_lock<std::mutex> lock(_acquireMutex);
    _acquireCv.wait(lock, [&] { return _acquireRemaining == 0; });
}

const std::map<std::string, RunError> &
SuiteRunner::failedBenchmarks() const
{
    waitAcquisition();
    return _failedTraces;
}

const TraceSourceStats &
SuiteRunner::traceSourceStats() const
{
    waitAcquisition();
    return _traceStats;
}

void
SuiteRunner::publishTraceSource(RunMetrics &metrics) const
{
    // Once per runner: whether this run paid the trace generation
    // cost or rode the cache (the CI cache-smoke job asserts on these
    // counters).
    const TraceSourceStats &stats = traceSourceStats();
    if (!_traceStatsPublished.exchange(true)) {
        metrics.recordTraceSource(stats.generated, stats.mmapHits,
                                  stats.streamHits, stats.seconds);
    }
}

SuiteRunner
SuiteRunner::avgSuite(bool emit_conditionals)
{
    return SuiteRunner(benchmarkGroups().avg, emit_conditionals);
}

SuiteRunner
SuiteRunner::fullSuite(bool emit_conditionals)
{
    std::vector<std::string> names = benchmarkGroups().avg;
    const auto &infrequent = benchmarkGroups().infrequent;
    names.insert(names.end(), infrequent.begin(), infrequent.end());
    return SuiteRunner(std::move(names), emit_conditionals);
}

const Trace &
SuiteRunner::trace(const std::string &benchmark) const
{
    waitAcquisition();
    const auto it = _traces.find(benchmark);
    IBP_ASSERT(it != _traces.end(), "benchmark '%s' not loaded",
               benchmark.c_str());
    return it->second;
}

unsigned
simulationThreads()
{
    if (const char *env = std::getenv("IBP_THREADS")) {
        // Clamp to >= 1 so IBP_THREADS=0 (or garbage) still yields
        // a usable serial run instead of silently ignoring the
        // override.
        return static_cast<unsigned>(
            std::max(1L, std::atol(env)));
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 4 : hw;
}

std::vector<GridResult>
SuiteRunner::runBatch(const std::vector<std::vector<SweepColumn>> &grids,
                      RunSession &session) const
{
    const unsigned first_grid_id = session.nextGridId;
    session.nextGridId += static_cast<unsigned>(grids.size());
    RunMetrics *metrics = session.metrics;
    CheckpointJournal *journal = session.checkpoint;
    // Drain support (docs/SERVICE.md): once the session's abort flag
    // reads true, no NEW cell starts; cells already simulating finish
    // and are journalled, unstarted cells stay absent from the grid.
    const auto aborted = [&session]() {
        return session.abort != nullptr &&
               session.abort->load(std::memory_order_acquire);
    };
    const auto notifyCell = [&session]() {
        if (session.onCellFinished)
            session.onCellFinished();
    };
    const std::int64_t deadline_ns = static_cast<std::int64_t>(
        session.retry.cellDeadlineSeconds * 1e9);

    Executor &executor = Executor::global();
    executor.ensureWorkers(simulationThreads());

    // The batch's columns in batch order (grid by grid) and the
    // spec-level chunk plan over them (see ChunkPlan).
    std::vector<const SweepColumn *> batch_columns;
    std::vector<std::size_t> grid_of;
    for (std::size_t g = 0; g < grids.size(); ++g) {
        for (const SweepColumn &column : grids[g]) {
            batch_columns.push_back(&column);
            grid_of.push_back(g);
        }
    }
    const ChunkPlan plan = planChunks(grids);

    struct Job
    {
        const SweepColumn *column;
        /** Filled once this benchmark's acquisition lands (the fused
         *  phase consumes the trace through its continuation before
         *  that, so it can start the moment the trace exists). */
        const Trace *trace = nullptr;
        const std::string *benchmark;
        /** Index of the job's column in batch order (plan lookup). */
        std::size_t batchColumn = 0;
        /** Index of the job's grid within the batch. */
        std::size_t grid = 0;
        /** The grid's session-wide id (journal and fault keys). */
        unsigned gridId = 0;
        double missPercent = 0.0;
        /** Completed by the single-pass phase; skipped per-cell. */
        bool done = false;
        bool failed = false;
        RunError error = {};
        /** Result-store cell key; empty = don't probe or persist
         *  (store disabled, column unkeyed, or injector armed). */
        std::string storeKey = {};
        /** Claimed by a live peer when this run tried to claim it:
         *  resolved by the deferred-wait loop (served from the
         *  store, or simulated if the owner gave up). */
        bool deferred = false;
        /** Another shard's cell, tracked only as a work-stealing
         *  candidate; skipped by both phases. */
        bool foreign = false;
    };

    // Content-addressed result store (docs/PERFORMANCE.md): keyed
    // columns probe it before simulating and persist what they
    // compute. An armed fault injector bypasses the store wholesale -
    // injected faults must reach a real simulation, and a faulted
    // run must never pollute the store.
    ResultStore *store = ResultStore::global();
    if (FaultInjector::global().armed())
        store = nullptr;
    // Shard fan-out and cell claims both communicate through the
    // store; without one they degrade to a plain full run (correct,
    // just unshared). See the RunSession field docs.
    const bool shard_active = store != nullptr &&
                              session.shardCount > 1 &&
                              !_names.empty();
    const unsigned shard_count =
        shard_active ? session.shardCount : 1;
    const unsigned shard_index =
        shard_active ? session.shardIndex % shard_count : 0;
    const bool claims_active = store != nullptr && session.cellClaims;
    // hits/misses/invalidated/journalWritebacks are only touched in
    // the single-threaded construction loop below; stores and claims
    // happen on worker threads and are counted via atomics.
    ResultStoreStats store_stats;
    std::atomic<unsigned> store_writes{0};
    std::atomic<unsigned> stolen_cells{0};
    std::atomic<unsigned> claims_taken{0};
    std::atomic<unsigned> claims_busy{0};
    std::atomic<unsigned> claims_served{0};
    // Cell keys need each benchmark's trace cache key, computable
    // from the name alone (no need to wait for acquisition); cached
    // because profile hashing is per-benchmark work, not per-cell.
    std::map<std::string, std::string> trace_keys;
    const auto traceKeyOf =
        [&](const std::string &name) -> const std::string & {
        auto it = trace_keys.find(name);
        if (it == trace_keys.end()) {
            it = trace_keys
                     .emplace(name, benchmarkTraceCacheKey(
                                        name, _emitConditionals))
                     .first;
        }
        return it->second;
    };

    std::vector<GridResult> results(grids.size());
    std::vector<Job> jobs;
    jobs.reserve(batch_columns.size() * _names.size());
    // Completion records, written as ONE fsynced journal batch (a
    // pass's store hits, a fused chunk's cells) instead of one fsync
    // per cell - a warm grid is all hits, and per-hit fsyncs
    // dominated its time. Safe from worker threads.
    const auto journalCells =
        [journal](const std::vector<CheckpointCell> &records) {
            if (!journal || records.empty())
                return;
            const auto appended = journal->appendCells(records);
            if (!appended.ok()) {
                warn("checkpoint append of %zu cells failed: %s",
                     records.size(),
                     appended.error().describe().c_str());
            }
        };
    // Journal records of store-served cells on the calling thread.
    std::vector<CheckpointCell> served_records;
    const auto flushServed = [&]() {
        journalCells(served_records);
        served_records.clear();
    };
    // Count one cell served from a stored entry (thread-safe; the
    // stored integer counters make the restored miss rate
    // bit-identical to a cold computation).
    const auto recordStored = [&](const SweepColumn &column,
                                  const std::string &name,
                                  const StoredResult &cell) {
        if (metrics && cell.hasCounters) {
            CellMetrics restored_cell;
            restored_cell.column = column.label;
            restored_cell.benchmark = name;
            restored_cell.branches = cell.branches;
            restored_cell.seconds = cell.seconds;
            restored_cell.groupSeconds = cell.groupSeconds;
            restored_cell.secondsSynthetic = cell.sharedTraversal;
            restored_cell.tableOccupancy = cell.tableOccupancy;
            restored_cell.tableCapacity = cell.tableCapacity;
            metrics->recordStoredCell(restored_cell);
        }
        notifyCell();
    };
    // Serve one job from a stored entry - after a claim's re-probe,
    // or in the deferred-wait loop. Its journal record goes to
    // @p records, which the caller writes as one batch: served cells
    // are journalled like any finished cell, so a drained-and-resumed
    // sweep stays coherent.
    const auto serveJob = [&](Job &job, const StoredResult &cell,
                              std::vector<CheckpointCell> &records) {
        job.done = true;
        job.missPercent = cell.missPercent;
        records.push_back(CheckpointCell{job.gridId, job.column->label,
                                         *job.benchmark,
                                         cell.missPercent});
        recordStored(*job.column, *job.benchmark, cell);
    };
    for (std::size_t batch_column = 0;
         batch_column < batch_columns.size(); ++batch_column) {
        const SweepColumn &column = *batch_columns[batch_column];
        const std::size_t grid = grid_of[batch_column];
        const unsigned grid_id =
            first_grid_id + static_cast<unsigned>(grid);
        const std::size_t chunk = plan.chunkOf[batch_column];
        const auto makeJob = [&](const std::string &name,
                                 std::string store_key) {
            Job job{&column, nullptr, &name};
            job.batchColumn = batch_column;
            job.grid = grid;
            job.gridId = grid_id;
            job.storeKey = std::move(store_key);
            return job;
        };
        for (std::size_t name_index = 0;
             name_index < _names.size(); ++name_index) {
            const std::string &name = _names[name_index];
            // Resume: a journalled cell is restored verbatim, not
            // recomputed (it carries the full-precision miss rate).
            // Benchmarks whose acquisition fails are resolved after
            // the acquisition barrier below - their cells fail
            // without ever simulating.
            if (journal) {
                const auto restored =
                    journal->lookup(grid_id, column.label, name);
                if (restored) {
                    results[grid].set(column.label, name, *restored);
                    // Checkpoint/result-store interplay: the journal
                    // resurrected this cell, so it is NOT a store
                    // hit - but its value is worth persisting so the
                    // next journal-less warm run finds it. Written
                    // back exactly once (contains() guards reruns of
                    // the same journal); the journal records only
                    // the miss rate, so the entry carries no
                    // counters.
                    if (store && column.specHash != 0) {
                        const std::string key = ResultStore::cellKey(
                            traceKeyOf(name), column.specHash);
                        if (!store->contains(key)) {
                            StoredResult entry;
                            entry.benchmark = name;
                            entry.hasCounters = false;
                            entry.missPercent = *restored;
                            const auto written =
                                store->store(key, entry);
                            if (written.ok()) {
                                ++store_stats.journalWritebacks;
                            } else {
                                warn("result store write-back for "
                                     "%s/%s failed: %s",
                                     column.label.c_str(),
                                     name.c_str(),
                                     written.error()
                                         .describe()
                                         .c_str());
                            }
                        }
                    }
                    notifyCell();
                    continue;
                }
                // Poisoning: a cell with this many start records but
                // no completion killed (or hung) every prior
                // incarnation that tried it. Another attempt would
                // crash-loop the sweep, so record a timeout failure
                // and move on (docs/ROBUSTNESS.md).
                const unsigned prior = journal->startedCountPrior(
                    grid_id, column.label, name);
                if (prior >= session.retry.poisonThreshold) {
                    const std::string message =
                        "cell poisoned: " + std::to_string(prior) +
                        " prior incarnations died inside it";
                    if (metrics) {
                        metrics->recordFailure(FailureRecord{
                            column.label, name, message,
                            errorKindName(ErrorKind::Timeout),
                            prior});
                    }
                    results[grid].setFailed(
                        FailedCell{column.label, name, message,
                                   ErrorKind::Timeout, prior});
                    notifyCell();
                    continue;
                }
            }
            std::string store_key;
            if (store && column.specHash != 0) {
                store_key = ResultStore::cellKey(traceKeyOf(name),
                                                 column.specHash);
            }
            // Shard filter: only the owner shard of the cell's
            // (chunk, benchmark) simulates it; other shards either
            // track it as a steal candidate or skip it outright (the
            // merge pass restores it from the store). Unkeyed cells
            // cannot flow through the store, so every shard leaves
            // them for the merge.
            if (shard_active) {
                if (store_key.empty())
                    continue;
                if (shardOwner(name_index, chunk, shard_count) !=
                    shard_index) {
                    if (session.shardSteal) {
                        Job job = makeJob(name, std::move(store_key));
                        job.foreign = true;
                        jobs.push_back(std::move(job));
                    }
                    continue;
                }
            }
            // Warm probe: a keyed cell whose inputs (trace key x
            // spec hash x simulator version x table impl) match a
            // stored entry is loaded instead of simulated - the
            // stored integer counters make the restored miss rate
            // bit-identical to a cold computation. A quarantined
            // entry counts as invalidated and the cell re-simulates.
            // A missed cell is claimed only when its task starts
            // (claimCells), so a run holds claims on the cells it is
            // computing, not on the whole batch.
            if (!store_key.empty()) {
                const auto loaded = store->load(store_key);
                if (loaded.status == ResultStore::LoadStatus::Hit) {
                    ++store_stats.hits;
                    results[grid].set(column.label, name,
                                      loaded.result.missPercent);
                    served_records.push_back(
                        CheckpointCell{grid_id, column.label, name,
                                       loaded.result.missPercent});
                    recordStored(column, name, loaded.result);
                    continue;
                }
                if (loaded.status ==
                    ResultStore::LoadStatus::Invalidated) {
                    ++store_stats.invalidated;
                } else {
                    ++store_stats.misses;
                }
            }
            if (session.storeOnly) {
                // The miss ends the run, but its trace acquisition
                // is still reported: a daemon tells a warm job from
                // a cold one by it.
                if (metrics)
                    publishTraceSource(*metrics);
                throw StoreOnlyMiss();
            }
            jobs.push_back(makeJob(name, std::move(store_key)));
        }
    }
    flushServed();

    // One slot per pool worker (plus one for off-pool callers, e.g.
    // inline execution when the pool degraded to zero workers)
    // carries the watchdog state. The attempt
    // currently running is published as an *epoch*: the worker bumps
    // it before arming a deadline, and the watchdog requests
    // cancellation of the epoch it observed, so a request that lands
    // after the attempt already finished names a dead epoch and the
    // next attempt's poll ignores it (the stale-cancel race the old
    // plain bool had).
    struct WorkerSlot
    {
        /** Epoch of the armed attempt, 0 when idle. */
        std::atomic<std::uint64_t> epoch{0};
        std::atomic<std::int64_t> deadlineNs{0};
        CancelToken token;
        /** Owner-thread counter; never reused within a slot. */
        std::uint64_t lastEpoch = 0;

        void
        arm(std::int64_t deadline_at)
        {
            token.armed = ++lastEpoch;
            epoch.store(token.armed, std::memory_order_release);
            deadlineNs.store(deadline_at, std::memory_order_release);
        }

        void
        disarm()
        {
            deadlineNs.store(0, std::memory_order_relaxed);
            epoch.store(0, std::memory_order_release);
            token.armed = 0;
        }
    };
    // publishedWorkers() is monotonic and a worker's index is always
    // below it, so indexing is stable for the whole run; the extra
    // slot serves any off-pool thread. Tasks on one worker run
    // sequentially, so each slot has one owner at a time.
    const unsigned published_workers = executor.publishedWorkers();
    std::vector<WorkerSlot> slots(published_workers + 1);
    const auto slotFor = [&slots, published_workers]() -> WorkerSlot & {
        const int index = Executor::currentWorkerIndex();
        if (index < 0 ||
            static_cast<unsigned>(index) >= published_workers) {
            return slots[published_workers];
        }
        return slots[static_cast<unsigned>(index)];
    };

    std::mutex wd_mutex;
    std::condition_variable wd_cv;
    bool wd_stop = false;
    std::thread watchdog;
    if (deadline_ns > 0 && !jobs.empty()) {
        watchdog = std::thread([&]() {
            std::unique_lock<std::mutex> lock(wd_mutex);
            while (!wd_stop) {
                wd_cv.wait_for(lock, std::chrono::milliseconds(20));
                const std::int64_t now = nowNs();
                for (auto &slot : slots) {
                    // Consistent (epoch, deadline) snapshot: if the
                    // worker swapped attempts between the two epoch
                    // reads, skip this tick and re-check in 20ms
                    // rather than cancel with a mismatched pair.
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
                    slot.token.requested.store(
                        e1, std::memory_order_relaxed);
                }
            }
        });
    }

    const auto grid_start = std::chrono::steady_clock::now();

    // The store entry of one freshly simulated cell.
    const auto storedEntry = [](const Job &job, const SimResult &result) {
        StoredResult entry;
        entry.benchmark = *job.benchmark;
        entry.predictor = result.predictor;
        entry.hasCounters = true;
        entry.branches = result.branches;
        entry.misses = result.misses;
        entry.noPrediction = result.noPrediction;
        entry.tableOccupancy = result.tableOccupancy;
        entry.tableCapacity = result.tableCapacity;
        entry.seconds = result.seconds;
        entry.groupSeconds = result.groupSeconds;
        entry.sharedTraversal = result.sharedTraversal;
        entry.missPercent = result.missPercent();
        return entry;
    };

    // Record one finished cell (thread-safe). Its store entry and
    // journal record were written by persistCells just before.
    const auto finishCell = [&](Job &job, const SimResult &result) {
        job.missPercent = result.missPercent();
        job.done = true;
        if (metrics) {
            // One record per finished cell - never inside the
            // per-branch simulation loop.
            CellMetrics cell;
            cell.column = job.column->label;
            cell.benchmark = *job.benchmark;
            cell.branches = result.branches;
            cell.seconds = result.seconds;
            cell.groupSeconds = result.groupSeconds;
            cell.secondsSynthetic = result.sharedTraversal;
            cell.tableOccupancy = result.tableOccupancy;
            cell.tableCapacity = result.tableCapacity;
            metrics->recordCell(cell);
        }
        notifyCell();
    };

    // Freshly simulated cells' store entries and journal records,
    // each written as one durable batch before the cells finish and
    // their claims are released - so a peer that wins a claim next
    // finds the entry instead of re-simulating. A fused chunk passes
    // all of its members (one fsync per write window, not per cell),
    // a per-cell attempt its one cell. A full disk degrades the
    // store, never the run.
    const auto persistCells = [&](const std::vector<std::size_t> &members,
                                  const std::vector<SimResult> &cells) {
        if (store) {
            std::vector<ResultStore::Entry> entries;
            std::vector<std::size_t> stored_jobs;
            for (std::size_t i = 0; i < members.size(); ++i) {
                const Job &job = jobs[members[i]];
                if (job.storeKey.empty())
                    continue;
                entries.push_back(
                    {job.storeKey, storedEntry(job, cells[i])});
                stored_jobs.push_back(members[i]);
            }
            const auto written = store->storeAll(entries);
            for (std::size_t e = 0; e < written.size(); ++e) {
                if (written[e].ok()) {
                    store_writes.fetch_add(1, std::memory_order_relaxed);
                    continue;
                }
                const Job &job = jobs[stored_jobs[e]];
                warn("result store write for %s/%s failed: %s",
                     job.column->label.c_str(), job.benchmark->c_str(),
                     written[e].error().describe().c_str());
            }
        }
        std::vector<CheckpointCell> done;
        if (journal) {
            done.reserve(members.size());
            for (std::size_t i = 0; i < members.size(); ++i) {
                const Job &job = jobs[members[i]];
                done.push_back(CheckpointCell{job.gridId,
                                              job.column->label,
                                              *job.benchmark,
                                              cells[i].missPercent()});
            }
        }
        journalCells(done);
    };

    // Claim a task's keyed cells (claims on) just before it simulates
    // them, into @p held: a cell a live peer holds is deferred and
    // served from the store once the peer persists it (the
    // cross-shard / cross-request exactly-once path); a cell the
    // previous owner persisted between our probe and this claim is
    // served right away. A thief (@p stealing) instead just skips
    // foreign cells that are stored or claimed: they stay their
    // owner's. Returns the members left to simulate. Safe from worker
    // threads: each job belongs to one task.
    const auto claimCells = [&](const std::vector<std::size_t> &members,
                                CellClaims &held, bool stealing) {
        if (!claims_active && !stealing)
            return members;
        std::vector<std::size_t> mine;
        std::vector<CheckpointCell> records;
        for (const std::size_t j : members) {
            Job &job = jobs[j];
            if (job.storeKey.empty()) {
                mine.push_back(j);
                continue;
            }
            if (stealing) {
                if (!store->contains(job.storeKey) &&
                    held.tryClaim(job.storeKey) &&
                    !store->contains(job.storeKey)) {
                    mine.push_back(j);
                }
                continue;
            }
            if (!held.tryClaim(job.storeKey)) {
                job.deferred = true;
                claims_busy.fetch_add(1, std::memory_order_relaxed);
                continue;
            }
            const auto raced = store->load(job.storeKey);
            if (raced.status == ResultStore::LoadStatus::Hit) {
                claims_served.fetch_add(1, std::memory_order_relaxed);
                serveJob(job, raced.result, records);
                continue;
            }
            mine.push_back(j);
        }
        journalCells(records);
        return mine;
    };
    // Claimed cells this run simulated, counted once they finish.
    const auto countClaimed = [&](const std::vector<std::size_t> &members) {
        if (!claims_active)
            return;
        for (const std::size_t j : members) {
            if (jobs[j].done && !jobs[j].storeKey.empty())
                claims_taken.fetch_add(1, std::memory_order_relaxed);
        }
    };

    // Fused-path telemetry (metrics.sweep_kernel and metrics.simd),
    // summed per chunk under one mutex - chunks run concurrently. A
    // "group" here is one fused chunk (split-on-idle can divide a
    // benchmark's columns across several chunks, each fused
    // independently).
    std::mutex telemetry_mutex;
    SweepKernelStats sweep;
    SimdStats simd;
    const auto tally = [&telemetry_mutex](const auto &count) {
        std::lock_guard<std::mutex> lock(telemetry_mutex);
        count();
    };

    using Units = std::vector<std::vector<std::size_t>>;
    // One fused chunk task: claim its cells, build the members'
    // predictors, bind them to a kernel, run the shared traversal,
    // persist. Split-off halves re-enter it through @p batch. A
    // stealing task runs another shard's (chunk, benchmark) task.
    std::function<void(Executor::Batch &, const Trace *, Units, bool)>
        runChunk = [&](Executor::Batch &batch, const Trace *chunk_trace,
                       Units units, bool stealing) {
            // Draining: leave the chunk's jobs pending; phase 2
            // skips them again, so they stay unstarted for the
            // resumed run.
            if (aborted())
                return;
            // Split-on-idle: while other workers are parked, hand
            // them half of this chunk's units. Each half fuses
            // independently; per-column results do not depend on
            // chunk composition, so splitting cannot change any
            // counter, and splitting only between units never
            // duplicates a machine.
            while (units.size() > 1 &&
                   executor.idleWorkers() > 0) {
                const std::size_t keep = units.size() / 2;
                Units given(
                    std::make_move_iterator(
                        units.begin() +
                        static_cast<std::ptrdiff_t>(keep)),
                    std::make_move_iterator(units.end()));
                units.resize(keep);
                batch.spawn([&batch, &runChunk, chunk_trace, stealing,
                             given = std::move(given)]() mutable {
                    runChunk(batch, chunk_trace, std::move(given),
                             stealing);
                });
            }
            std::vector<std::size_t> members;
            for (const auto &unit : units)
                members.insert(members.end(), unit.begin(),
                               unit.end());

            const Job &lead = jobs[members.front()];
            try {
                FaultInjector::global().check(
                    "fused", std::to_string(lead.gridId) + "/" +
                                 *lead.benchmark);
            } catch (const RunException &) {
                tally([&] { ++sweep.fallbackInjected; });
                return;
            }

            // Held until the chunk is persisted; a chunk that falls
            // back releases them for phase 2 to retake (a thief's
            // cells stay their owner's).
            CellClaims held = claims_active || stealing
                                  ? store->claims()
                                  : CellClaims{};
            members = claimCells(members, held, stealing);
            if (members.empty())
                return;

            if (journal) {
                // One batched start record per chunk member: if the
                // process dies inside this traversal, the resuming
                // run knows which cells were in flight. A single
                // fsync covers the chunk.
                std::vector<CheckpointStart> starts;
                starts.reserve(members.size());
                for (const std::size_t j : members) {
                    starts.push_back(CheckpointStart{
                        jobs[j].gridId, jobs[j].column->label,
                        *jobs[j].benchmark});
                }
                const auto marked =
                    journal->appendStarts(starts);
                if (!marked.ok()) {
                    warn("checkpoint start append failed: %s",
                         marked.error().describe().c_str());
                }
            }

            std::vector<std::unique_ptr<IndirectPredictor>>
                predictors;
            std::vector<IndirectPredictor *> raw;
            predictors.reserve(members.size());
            raw.reserve(members.size());
            try {
                for (const std::size_t j : members) {
                    auto predictor = jobs[j].column->make();
                    if (!predictor) {
                        throw RunException(RunError::permanent(
                            "predictor factory for '" +
                            jobs[j].column->label +
                            "' returned null"));
                    }
                    raw.push_back(predictor.get());
                    predictors.push_back(std::move(predictor));
                }
            } catch (...) {
                tally([&] { ++sweep.fallbackFactory; });
                return;
            }

            SweepKernel kernel;
            for (IndirectPredictor *predictor : raw)
                kernel.tryJoin(*predictor);
            kernel.finalize();

            WorkerSlot &slot = slotFor();
            try {
                if (deadline_ns > 0) {
                    // The whole-chunk deadline is the sum of
                    // the per-cell budgets it replaces.
                    slot.arm(nowNs() +
                             deadline_ns *
                                 static_cast<std::int64_t>(
                                     members.size()));
                }
                SimOptions options;
                options.cancel = &slot.token;
                options.kernel = &kernel;
                TraversalStats traversal;
                options.traversal = &traversal;
                const std::vector<SimResult> cells =
                    simulateMany(raw, *chunk_trace, options);
                slot.disarm();
                persistCells(members, cells);
                held.release();
                for (std::size_t i = 0; i < members.size();
                     ++i) {
                    finishCell(jobs[members[i]], cells[i]);
                }
                if (stealing) {
                    stolen_cells.fetch_add(
                        static_cast<unsigned>(members.size()),
                        std::memory_order_relaxed);
                } else {
                    countClaimed(members);
                }
                tally([&] {
                    ++sweep.groupsFused;
                    sweep.predictorsBound += kernel.joinedPredictors();
                    sweep.predictorsUnbound +=
                        kernel.declinedPredictors();
                    sweep.predictorsDeduped += traversal.foldedMembers;
                    simd.columnarBlocks += traversal.columnarBlocks;
                    simd.transposedBlocks += traversal.transposedBlocks;
                    simd.skippedRecords += traversal.skippedRecords;
                    simd.laneColumns += traversal.laneColumns;
                    simd.genericColumns += traversal.genericColumns;
                    simd.laneMachines += traversal.laneMachines;
                    simd.lruStacks += traversal.lruStacks;
                    simd.stackedMembers += traversal.stackedMembers;
                    simd.setStacks += traversal.setStacks;
                    simd.setStackedMembers += traversal.setStackedMembers;
                });
            } catch (const RunException &exception) {
                // Leave the chunk's jobs pending; phase 2 gives each
                // own cell its isolated retries.
                slot.disarm();
                const bool timeout =
                    exception.error().kind == ErrorKind::Timeout;
                tally([&] {
                    ++(timeout ? sweep.fallbackCancelled
                               : sweep.fallbackError);
                });
            } catch (...) {
                slot.disarm();
                tally([&] { ++sweep.fallbackError; });
            }
        };

    // The jobs @p pick selects, one group per (chunk, benchmark)
    // task in order of first appearance, each sorted into the chunk's
    // units (split points).
    const auto groupTasks = [&](const auto &pick) {
        std::vector<Units> groups;
        std::map<std::pair<std::string, std::size_t>, std::size_t>
            group_of;
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            if (!pick(jobs[j]))
                continue;
            const std::size_t chunk = plan.chunkOf[jobs[j].batchColumn];
            const auto [it, fresh] = group_of.try_emplace(
                std::make_pair(*jobs[j].benchmark, chunk),
                groups.size());
            if (fresh)
                groups.emplace_back(plan.chunks[chunk].units.size());
            groups[it->second][plan.unitOf[jobs[j].batchColumn]]
                .push_back(j);
        }
        for (Units &units : groups) {
            std::erase_if(units, [](const std::vector<std::size_t> &unit) {
                return unit.empty();
            });
        }
        return groups;
    };

    // Phase 1 (opportunistic): feed each planned chunk's pending
    // columns of a benchmark from ONE trace traversal with a fused
    // sweep kernel, each chunk becoming runnable the moment its trace
    // lands (onTraceReady continuation -> executor task). Chunks of
    // every grid of the batch share this one pass: there is no
    // barrier between grids. Skipped when the
    // fault injector arms the "sim" site - those faults are per-cell
    // by construction - while the dedicated "fused" site injects
    // into this phase to test the fallback. Any failure inside a
    // chunk (factory error, watchdog cancellation, injected fault,
    // anything the engine throws) simply leaves its jobs pending for
    // phase 2, which re-runs them under the full per-cell
    // retry/deadline isolation. Results are bit-identical either way
    // (see simulateMany()).
    if (!jobs.empty()) {
        // Foreign cells run only through the steal sweep.
        const std::vector<Units> groups = groupTasks(
            [](const Job &job) { return !job.foreign; });
        if (FaultInjector::global().armedFor("sim")) {
            sweep.fallbackInjectorArmed =
                static_cast<unsigned>(groups.size());
        } else {
            Executor::Batch batch(executor);
            // Acquisition slot index of each benchmark name (first
            // occurrence wins, matching finishAcquire).
            std::map<std::string, std::size_t> name_index;
            for (std::size_t i = 0; i < _names.size(); ++i)
                name_index.try_emplace(_names[i], i);

            for (const Units &units : groups) {
                const std::size_t index =
                    name_index.at(*jobs[units.front().front()].benchmark);
                // defer() reserves the chunk in the batch before the
                // trace exists, so batch.wait() below cannot return
                // while any chunk is still gated on acquisition.
                batch.defer();
                onTraceReady(index, [&batch, &runChunk,
                                     units](const Trace *trace) {
                    if (trace == nullptr) {
                        // Acquisition failed; the jobs are resolved
                        // as failed cells after the barrier below.
                        batch.cancelDeferred();
                        return;
                    }
                    batch.spawnDeferred([&batch, &runChunk, trace,
                                         units]() {
                        runChunk(batch, trace, units, false);
                    });
                });
            }
            batch.wait();
        }
    }

    // Acquisition barrier: phase 2 (and failed-trace resolution)
    // needs every outcome, not just the ones phase 1 consumed.
    waitAcquisition();
    for (auto &job : jobs) {
        if (job.done || job.failed)
            continue;
        const auto failed_trace = _failedTraces.find(*job.benchmark);
        if (failed_trace != _failedTraces.end()) {
            // A benchmark whose trace never materialised fails every
            // cell up front - no point retrying the simulation.
            const RunError &cause = failed_trace->second;
            job.failed = true;
            job.error = cause;
            job.error.message = cause.describe();
            // A foreign steal candidate was never this shard's work:
            // mark it unstealable without charging this shard a
            // failure record or a progress tick.
            if (job.foreign)
                continue;
            if (metrics) {
                metrics->recordFailure(
                    FailureRecord{job.column->label, *job.benchmark,
                                  cause.describe(),
                                  errorKindName(cause.kind),
                                  cause.attempts});
            }
            notifyCell();
            continue;
        }
        job.trace = &_traces.at(*job.benchmark);
    }

    // One isolated cell attempt, shared by phase 2, the steal sweep
    // and the deferred-wait loop: the full per-cell machinery
    // (journal start records, retry policy, watchdog deadline, fault
    // injection), then the cell is persisted and finished like a
    // one-member chunk. record_failure=false leaves a failed cell
    // pending instead of failing the grid - a stolen cell's owner (or
    // the merge pass) remains responsible for it. The caller holds
    // the cell's claim, if any, until this returns.
    const auto attemptCell = [&](std::size_t j, bool record_failure) {
        Job &job = jobs[j];
        WorkerSlot &slot = slotFor();
        const std::string fault_key = std::to_string(job.gridId) +
                                      "/" + job.column->label + "/" +
                                      *job.benchmark;
        // Attempts of dead incarnations count: seeding the
        // fault-injection attempt with the journalled start
        // count lets a deterministic injected crash/hang
        // clear when a fresh process retries the cell.
        const unsigned prior_starts =
            journal ? journal->startedCountPrior(
                          job.gridId, job.column->label,
                          *job.benchmark)
                    : 0;
        auto outcome = runWithRetries(
            session.retry, [&](unsigned attempt) {
                if (journal) {
                    const auto marked = journal->appendStart(
                        CheckpointStart{job.gridId, job.column->label,
                                        *job.benchmark});
                    if (!marked.ok()) {
                        warn("checkpoint start append failed"
                             " for %s/%s: %s",
                             job.column->label.c_str(),
                             job.benchmark->c_str(),
                             marked.error().describe().c_str());
                    }
                }
                if (deadline_ns > 0)
                    slot.arm(nowNs() + deadline_ns);
                // The attempt must disarm on every exit path
                // or the watchdog would target a dead epoch
                // (and the old plain-bool design would have
                // cancelled the *next* attempt).
                struct Disarm
                {
                    WorkerSlot &slot;
                    ~Disarm() { slot.disarm(); }
                } disarm{slot};
                FaultInjector::global().check("sim", fault_key,
                                              prior_starts + attempt);
                auto predictor = job.column->make();
                if (!predictor) {
                    throw RunException(RunError::permanent(
                        "predictor factory for '" +
                        job.column->label + "' returned null"));
                }
                SimOptions options;
                options.cancel = &slot.token;
                return simulate(*predictor, *job.trace, options);
            });
        if (!outcome.ok()) {
            if (!record_failure)
                return;
            job.failed = true;
            job.error = outcome.error();
            if (metrics) {
                metrics->recordFailure(FailureRecord{
                    job.column->label, *job.benchmark,
                    job.error.message, errorKindName(job.error.kind),
                    job.error.attempts});
            }
            notifyCell();
            return;
        }
        persistCells({j}, {outcome.value()});
        finishCell(job, outcome.value());
    };

    // Phase 2: per-cell isolation for everything still pending.
    {
        Executor::Batch batch(executor);
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            if (jobs[j].done || jobs[j].failed ||
                jobs[j].deferred || jobs[j].foreign) {
                continue;
            }
            batch.spawn([&, j]() {
                // Draining: leave the cell unstarted (not failed),
                // so the resumed run picks it up.
                if (aborted())
                    return;
                CellClaims held =
                    claims_active ? store->claims() : CellClaims{};
                if (claimCells({j}, held, false).empty())
                    return; // deferred or served
                attemptCell(j, true);
                countClaimed({j});
            });
        }
        batch.wait();
    }

    // Steal sweep: with our own partition done, run the foreign
    // (chunk, benchmark) tasks whose owner shard has not reached them
    // (it crashed, or is simply slower), fused like our own. A thief
    // takes only the cells nobody has stored or claimed, so a live
    // owner mid-task is never duplicated; a stolen cell's store entry
    // is what the merge pass (and the owner's own claim re-probe)
    // serves. A worker pops its own queue newest first (Executor), so
    // an owner, whose tasks were queued in plan order, works from the
    // end of its plan; queued in reverse, a thief's tasks run from
    // the start, and the two meet instead of racing for the same
    // task.
    if (shard_active && session.shardSteal) {
        const std::vector<Units> foreign = groupTasks(
            [](const Job &job) { return job.foreign && !job.failed; });
        Executor::Batch batch(executor);
        for (auto task = foreign.rbegin(); task != foreign.rend();
             ++task) {
            const Trace *trace = jobs[task->front().front()].trace;
            batch.spawn([&batch, &runChunk, trace, units = *task]() {
                runChunk(batch, trace, units, true);
            });
        }
        batch.wait();
    }

    // Deferred-wait loop: cells another claimant was computing when
    // we tried to claim them. Poll the store (the owner persists
    // there), and retry the claim each round - acquiring it means
    // the owner gave up (drained, crashed) without storing, making
    // the cell ours. Past the wait ceiling, simulate regardless:
    // a duplicate simulation is benign (atomic store writes),
    // a grid hole is not.
    if (store != nullptr) {
        std::vector<std::size_t> waiting;
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            if (jobs[j].deferred && !jobs[j].done && !jobs[j].failed)
                waiting.push_back(j);
        }
        const auto give_up_at =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<
                std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(
                    claimWaitCeilingSeconds()));
        bool force = false;
        while (!waiting.empty() && !aborted()) {
            std::vector<std::size_t> still;
            for (const std::size_t j : waiting) {
                Job &job = jobs[j];
                const auto loaded = store->load(job.storeKey);
                if (loaded.status == ResultStore::LoadStatus::Hit) {
                    // The owner delivered: one simulation, N
                    // consumers.
                    claims_served.fetch_add(1,
                                            std::memory_order_relaxed);
                    serveJob(job, loaded.result, served_records);
                    continue;
                }
                if (force) {
                    attemptCell(j, true);
                    continue;
                }
                CellClaim claim = store->tryClaim(job.storeKey);
                if (!claim.acquired()) {
                    still.push_back(j);
                    continue;
                }
                // The owner is gone without storing; the cell is
                // ours now (~CellClaim releases after the store
                // write inside attemptCell).
                attemptCell(j, true);
                countClaimed({j});
            }
            flushServed();
            waiting = std::move(still);
            if (waiting.empty())
                break;
            if (std::chrono::steady_clock::now() >= give_up_at) {
                force = true;
                continue;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
    }

    const unsigned threads_used = std::max(
        1u, static_cast<unsigned>(std::min<std::size_t>(
                executor.workerCount(), jobs.size())));

    if (watchdog.joinable()) {
        {
            std::lock_guard<std::mutex> lock(wd_mutex);
            wd_stop = true;
        }
        wd_cv.notify_one();
        watchdog.join();
    }

    if (metrics) {
        metrics->recordThreads(threads_used);
        metrics->recordRunWindow(
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - grid_start)
                .count());
        publishTraceSource(*metrics);
        // Fused-path observability, mirroring trace_source: how many
        // chunks the fused engine served and why any fell back.
        if (!jobs.empty()) {
            sweep.groupsPerCell =
                sweep.fallbackFactory + sweep.fallbackCancelled +
                sweep.fallbackInjected + sweep.fallbackError +
                sweep.fallbackInjectorArmed;
            metrics->recordSweepKernel(sweep);
        }
        // SIMD/SoA observability: the process-wide dispatch level is
        // always worth recording; the traversal counters are summed
        // over the fused chunks above (zero for per-cell runs, which
        // is itself informative).
        simd.dispatchLevel = simdLevelName(simdLevel());
        simd.fallbackReason = simdFallbackReason();
        metrics->recordSimd(simd);
        // Result-store observability: recorded whenever the store
        // was armed for this run (even an all-miss cold pass), so
        // the CI warm-store gate can assert hits == cells with zero
        // misses on the warm artifact.
        if (store) {
            store_stats.stores =
                store_writes.load(std::memory_order_relaxed);
            store_stats.stolen =
                stolen_cells.load(std::memory_order_relaxed);
            store_stats.claims =
                claims_taken.load(std::memory_order_relaxed);
            store_stats.claimBusy =
                claims_busy.load(std::memory_order_relaxed);
            store_stats.claimServed =
                claims_served.load(std::memory_order_relaxed);
            metrics->recordResultStore(store_stats);
        }
    }

    for (auto &job : jobs) {
        if (job.foreign && !job.done) {
            // Unstolen foreign cells are the owner's (or the merge
            // pass's) problem, failed traces included; they must not
            // mark this shard's grid partial.
            continue;
        }
        if (job.failed) {
            results[job.grid].setFailed(FailedCell{
                job.column->label, *job.benchmark, job.error.message,
                job.error.kind, job.error.attempts});
        } else if (job.done) {
            results[job.grid].set(job.column->label, *job.benchmark,
                                  job.missPercent);
        }
        // Neither done nor failed: the drain flag stopped the cell
        // before it started. It stays absent from the grid, exactly
        // like a journal-restored run never saw it.
    }
    return results;
}

GridResult
SuiteRunner::run(const std::vector<SweepColumn> &columns,
                 RunSession &session) const
{
    return std::move(runBatch({columns}, session).front());
}

GridResult
SuiteRunner::run(const std::vector<SweepColumn> &columns,
                 RunMetrics *metrics) const
{
    RunSession session;
    session.metrics = metrics;
    session.retry = retryPolicyFromEnv();
    return run(columns, session);
}

std::map<std::string, double>
SuiteRunner::runOne(const PredictorFactory &factory,
                    RunMetrics *metrics) const
{
    const GridResult grid =
        run({SweepColumn{"only", factory}}, metrics);
    std::map<std::string, double> rates;
    for (const auto &name : _names) {
        if (grid.has("only", name))
            rates[name] = grid.get("only", name);
    }
    return rates;
}

std::vector<std::pair<std::string, std::vector<std::string>>>
SuiteRunner::coveredGroups() const
{
    const auto &groups = benchmarkGroups();
    // Coverage is about what this runner was *asked* to simulate,
    // not what survived trace generation: a group whose member
    // failed still renders (partially) instead of vanishing and
    // silently reshaping every table.
    const std::set<std::string> requested(_names.begin(),
                                          _names.end());
    const auto covered = [&](const std::vector<std::string> &members) {
        for (const auto &member : members) {
            if (requested.find(member) == requested.end())
                return false;
        }
        return !members.empty();
    };

    std::vector<std::pair<std::string, std::vector<std::string>>> out;
    if (covered(groups.avg))
        out.emplace_back("AVG", groups.avg);
    if (covered(groups.oo))
        out.emplace_back("AVG-OO", groups.oo);
    if (covered(groups.c))
        out.emplace_back("AVG-C", groups.c);
    if (covered(groups.avg100))
        out.emplace_back("AVG-100", groups.avg100);
    if (covered(groups.avg200))
        out.emplace_back("AVG-200", groups.avg200);
    if (covered(groups.infrequent))
        out.emplace_back("AVG-infreq", groups.infrequent);
    return out;
}

ResultTable
SuiteRunner::groupTable(const std::string &title, const GridResult &grid,
                        const std::vector<SweepColumn> &columns) const
{
    ResultTable table(title, "group");
    for (const auto &column : columns)
        table.addColumn(column.label);
    for (const auto &[group, members] : coveredGroups()) {
        const unsigned row = table.addRow(group);
        for (unsigned c = 0; c < columns.size(); ++c) {
            // Blank cell when the whole group failed; a partial
            // average is still rendered (ROBUSTNESS.md documents
            // the degraded semantics).
            if (grid.presentCount(columns[c].label, members) == 0)
                continue;
            table.set(row, c, grid.average(columns[c].label, members));
        }
    }
    return table;
}

ResultTable
SuiteRunner::benchmarkTable(const std::string &title,
                            const GridResult &grid,
                            const std::vector<SweepColumn> &columns) const
{
    ResultTable table(title, "benchmark");
    for (const auto &column : columns)
        table.addColumn(column.label);
    for (const auto &[group, members] : coveredGroups()) {
        const unsigned row = table.addRow(group);
        for (unsigned c = 0; c < columns.size(); ++c) {
            if (grid.presentCount(columns[c].label, members) == 0)
                continue;
            table.set(row, c, grid.average(columns[c].label, members));
        }
    }
    for (const auto &name : _names) {
        const unsigned row = table.addRow(name);
        for (unsigned c = 0; c < columns.size(); ++c) {
            if (grid.has(columns[c].label, name))
                table.set(row, c, grid.get(columns[c].label, name));
        }
    }
    return table;
}

} // namespace ibp
