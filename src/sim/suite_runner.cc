#include "sim/suite_runner.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>

#include "core/table_spec.hh"
#include "robust/fault_injection.hh"
#include "trace/trace_cache.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace ibp {

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
        // The cache reads no stream entries: the artifact's
        // stream_hits stays in the schema, always 0.
        metrics.recordTraceSource(stats.generated, stats.mmapHits, 0,
                                  stats.seconds);
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
