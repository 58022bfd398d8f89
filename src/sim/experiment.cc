#include "sim/experiment.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <mutex>
#include <new>

#include "core/table_spec.hh"
#include "robust/fault_injection.hh"
#include "synth/benchmark_suite.hh"
#include "util/logging.hh"

namespace ibp {

namespace {

// Output directories are created up front so a long sweep cannot
// fail at the very end on a missing --csv/--json path.
void
ensureDirectory(const std::string &dir, const char *what)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        throw RunException(RunError::permanent(
            std::string(what) + ": cannot create directory '" + dir +
            "': " + ec.message()));
    }
}

/** The process-wide experiment registry. Guarded for the daemon,
 *  whose connection threads look experiments up concurrently;
 *  registration itself happens at startup. std::map nodes are
 *  pointer-stable, so handed-out ExperimentDef pointers survive
 *  later registrations. */
std::mutex &
registryMutex()
{
    static std::mutex mutex;
    return mutex;
}

std::map<std::string, ExperimentDef> &
registrySlot()
{
    static std::map<std::string, ExperimentDef> defs;
    return defs;
}

} // namespace

const ExperimentDef &
registerExperiment(ExperimentDef def)
{
    std::lock_guard<std::mutex> lock(registryMutex());
    auto &slot = registrySlot()[def.slug];
    slot = std::move(def);
    return slot;
}

const ExperimentDef *
findExperiment(const std::string &slug)
{
    std::lock_guard<std::mutex> lock(registryMutex());
    const auto &defs = registrySlot();
    const auto it = defs.find(slug);
    return it == defs.end() ? nullptr : &it->second;
}

std::vector<std::string>
experimentSlugs()
{
    std::lock_guard<std::mutex> lock(registryMutex());
    std::vector<std::string> slugs;
    slugs.reserve(registrySlot().size());
    for (const auto &[slug, def] : registrySlot())
        slugs.push_back(slug);
    return slugs;
}

void
resetExperimentRegistryAfterFork()
{
    new (&registryMutex()) std::mutex();
}

void
applyQuickEventScale()
{
    if (!std::getenv("IBP_EVENTS"))
        setenv("IBP_EVENTS", "0.25", 1);
}

ExperimentContext::ExperimentContext(std::string slug,
                                     std::string title,
                                     const ExperimentOptions &options)
    : _slug(std::move(slug)), _title(std::move(title)),
      _options(options)
{
    if (!_options.csvDir.empty())
        ensureDirectory(_options.csvDir, "csv output");
    if (!_options.jsonDir.empty())
        ensureDirectory(_options.jsonDir, "json output");

    if (!_options.checkpointPath.empty()) {
        // The meta binds the journal to this experiment
        // configuration; eventScale() reflects any quick override
        // applied by the front end, so a quick journal cannot resume
        // a full run.
        CheckpointMeta meta;
        meta.slug = _slug;
        meta.gitSha = buildManifest().gitSha;
        meta.eventScale = eventScale();
        meta.quick = _options.quick;
        auto journal =
            CheckpointJournal::open(_options.checkpointPath, meta);
        if (!journal.ok()) {
            throw RunException(RunError::permanent(
                "checkpoint: " + journal.error().message));
        }
        _journal = std::move(journal).value();
        if (_journal->restoredCells() > 0 && _options.echo) {
            std::printf("(resuming: %zu cells restored from %s)\n\n",
                        _journal->restoredCells(),
                        _options.checkpointPath.c_str());
        }
    }

    _session.metrics = &_metrics;
    _session.checkpoint = _journal.get();
    _session.retry = _options.retry;
    _session.abort = _options.abort;
    _session.onCellFinished = _options.onCellFinished;
    _session.shardIndex = _options.shardIndex;
    _session.shardCount =
        std::max(1u, _options.shardCount);
    _session.shardSteal = _options.shardSteal;
    _session.cellClaims = _options.cellClaims;
    _session.storeOnly = _options.storeOnly;

    _metrics.recordThreads(simulationThreads());
    _metrics.recordTableImpl(tableImplName());
}

std::size_t
ExperimentContext::restoredCells() const
{
    return _journal ? _journal->restoredCells() : 0;
}

void
ExperimentContext::emit(const ResultTable &emitted)
{
    ResultTable table = emitted;
    if (_session.shardCount > 1) {
        // A shard simulates only the (chunk, benchmark) tasks it
        // owns, so an average over a column none of whose benchmarks
        // it owns is NaN. The merge pass renders the real table; a
        // shard's copy leaves such cells blank.
        for (unsigned row = 0; row < table.numRows(); ++row) {
            for (unsigned col = 0; col < table.numCols(); ++col) {
                const auto value = table.get(row, col);
                if (value && !std::isfinite(*value))
                    table.clear(row, col);
            }
        }
    }
    if (_options.echo)
        table.print();
    if (!_options.csvDir.empty()) {
        const std::string path = _options.csvDir + "/" + _slug + "_" +
                                 std::to_string(_tableIndex) + ".csv";
        table.writeCsv(path);
        if (_options.echo)
            std::printf("(csv written to %s)\n\n", path.c_str());
    }
    _tables.push_back(std::move(table));
    ++_tableIndex;
}

void
ExperimentContext::note(const std::string &text)
{
    if (_options.echo) {
        std::printf("%s\n\n", text.c_str());
        std::fflush(stdout);
    }
    _notes.push_back(text);
}

RunArtifact
ExperimentContext::buildArtifact(double total_seconds) const
{
    RunArtifact artifact;
    artifact.manifest = buildManifest();
    artifact.manifest.slug = _slug;
    artifact.manifest.title = _title;
    artifact.manifest.eventScale = eventScale();
    artifact.manifest.threads = simulationThreads();
    artifact.manifest.quick = _options.quick;
    artifact.tables = _tables;
    artifact.notes = _notes;
    artifact.metrics = _metrics;
    // If no grid run was timed (e.g. a trace-stats bench), fall back
    // to the total wall time so throughput is still meaningful.
    if (artifact.metrics.runSeconds() <= 0.0)
        artifact.metrics.recordRunWindow(total_seconds);
    return artifact;
}

ExperimentRunResult
runExperimentInProcess(const ExperimentDef &def,
                       const ExperimentOptions &options)
{
    ExperimentRunResult out;
    if (options.echo) {
        std::printf("=== %s: %s ===\n", def.slug.c_str(),
                    def.title.c_str());
        std::printf("(threads: %u, event scale: %.2f)\n\n",
                    simulationThreads(), eventScale());
    }
    const auto start = std::chrono::steady_clock::now();
    const auto elapsed = [&start]() {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    try {
        ExperimentContext context(def.slug, def.title, options);
        try {
            def.body(context);
        } catch (const StoreOnlyMiss &) {
            // A missed store-only pass still returns its metrics: the
            // daemon reads its trace acquisition (serve.warm).
            out.artifact = std::make_shared<RunArtifact>(
                context.buildArtifact(elapsed()));
            throw;
        }
        out.restoredCells = context.restoredCells();
        out.artifact = std::make_shared<RunArtifact>(
            context.buildArtifact(elapsed()));

        if (!options.jsonDir.empty()) {
            const std::string path =
                options.jsonDir + "/" + def.slug + ".json";
            // Artifact writes retry like any other cell work: a
            // transient (or injected) failure must not discard a
            // finished sweep.
            const auto written = runWithRetries(
                options.retry, [&](unsigned attempt) {
                    FaultInjector::global().check("artifact", path,
                                                  attempt);
                    const auto result = out.artifact->write(path);
                    if (!result.ok())
                        throw RunException(result.error());
                });
            if (!written.ok()) {
                throw RunException(RunError::permanent(
                    "artifact write failed: " +
                    written.error().describe()));
            }
            if (options.echo)
                std::printf("(json artifact written to %s)\n",
                            path.c_str());
        }

        const std::size_t failed_cells =
            out.artifact->metrics.failureCount();
        if (failed_cells > 0 && options.echo) {
            std::fprintf(stderr,
                         "warning: %zu cell%s failed permanently:\n",
                         failed_cells, failed_cells == 1 ? "" : "s");
            for (const auto &failure :
                 out.artifact->metrics.failures()) {
                std::fprintf(stderr, "  [%s][%s] %s: %s\n",
                             failure.column.c_str(),
                             failure.benchmark.c_str(),
                             failure.kind.c_str(),
                             failure.error.c_str());
            }
        }
        // Exit 3 = completed but partial; distinguishable from both
        // a clean run (0) and a fatal failure (1) in scripts and CI.
        out.exitCode = failed_cells > 0 ? 3 : 0;
    } catch (const StoreOnlyMiss &miss) {
        out.error = miss.what();
        out.exitCode = 1;
        out.storeMissed = true;
    } catch (const std::exception &error) {
        out.error = error.what();
        out.exitCode = 1;
        if (options.echo)
            std::fprintf(stderr, "experiment failed: %s\n",
                         error.what());
    }
    out.seconds = elapsed();
    if (options.echo && out.exitCode != 1) {
        std::printf("[%s done in %.1f s]\n", def.slug.c_str(),
                    out.seconds);
    }
    return out;
}

} // namespace ibp
