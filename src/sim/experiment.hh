/**
 * @file
 * Experiment definitions and the in-process run entry point.
 *
 * Every bench reproduces one figure or table of the paper. An
 * ExperimentDef names it (slug + title) and carries its body; defs
 * are registered in a process-wide registry so both the bench
 * binaries and the ibpd sweep daemon (src/serve) can look an
 * experiment up by slug and run it through the single shared entry
 * point, runExperimentInProcess().
 *
 * runExperimentInProcess() owns the standard setup/teardown - output
 * directories, checkpoint journal, timing, artifact construction,
 * failure reporting - parameterised by ExperimentOptions instead of
 * argc/argv: the CLI front end (bench/common_flags.hh) builds the
 * options from flags, the daemon builds them from a request. The
 * artifact is ALWAYS built (the daemon streams it to clients that
 * never see this process's disk); writing <slug>.json happens only
 * when options.jsonDir is set. A run that finishes with failed cells
 * reports exit code 3 so scripts can distinguish "partial" from
 * "clean" and "dead"; see docs/REPORTING.md.
 */

#ifndef IBP_SIM_EXPERIMENT_HH
#define IBP_SIM_EXPERIMENT_HH

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "report/artifact.hh"
#include "report/run_metrics.hh"
#include "robust/checkpoint.hh"
#include "robust/retry.hh"
#include "sim/suite_runner.hh"
#include "util/format.hh"

namespace ibp {

/**
 * Everything that parameterises one in-process experiment run. The
 * CLI builds it from flags (bench/common_flags.hh), the serve layer
 * from a client request; defaults give a plain interactive run.
 */
struct ExperimentOptions
{
    /** Also write each result table to csvDir/<slug>_<n>.csv. */
    std::string csvDir;
    /** Write the run artifact to jsonDir/<slug>.json. */
    std::string jsonDir;
    /** Cut the workload for smoke runs (benches may shrink sweeps;
     *  the trace scale cut rides on IBP_EVENTS, applied by the CLI
     *  before the run - see applyQuickEventScale()). */
    bool quick = false;
    /** Journal completed cells here and resume after a crash. */
    std::string checkpointPath;
    /** Per-cell retry/deadline policy. */
    RetryPolicy retry = retryPolicyFromEnv();
    /** Print tables, notes and progress to stdout. The daemon runs
     *  with echo=false: clients render the returned artifact. */
    bool echo = true;
    /** Drain flag: while set and true, SuiteRunner stops starting
     *  new cells (started cells finish and are journalled), so the
     *  run can be checkpointed and resumed (docs/SERVICE.md). */
    const std::atomic<bool> *abort = nullptr;
    /** Invoked after every resolved cell (done or failed), from
     *  worker threads; the serve layer streams progress with it. */
    std::function<void()> onCellFinished;
    /** Grid sharding (see RunSession): with shardCount > 1 and an
     *  armed result store, SuiteRunner simulates only this shard's
     *  benchmark partition into the store. */
    unsigned shardIndex = 0;
    unsigned shardCount = 1;
    /** Steal unclaimed foreign cells after finishing the
     *  partition. */
    bool shardSteal = false;
    /** Claim cells in the result store before simulating, so
     *  concurrent shards and overlapping requests compute each cell
     *  exactly once (see RunSession::cellClaims). */
    bool cellClaims = false;
    /** Serve every cell from the result store or stop at the first
     *  that is missing (see RunSession::storeOnly); the run then
     *  reports storeMissed. */
    bool storeOnly = false;
};

/** Parsed experiment state plus table sink, handed to the body. */
class ExperimentContext
{
  public:
    ExperimentContext(std::string slug, std::string title,
                      const ExperimentOptions &options);

    /** True when the run was asked to shrink its sweep. */
    bool quick() const { return _options.quick; }

    /** Print a table (when echoing) and record it for the artifact;
     *  with csvDir, also persist it. */
    void emit(const ResultTable &table);

    /** Free-form note printed between tables. */
    void note(const std::string &text);

    /**
     * Telemetry sink for this run; pass to SuiteRunner::run() so
     * per-cell counters land in the artifact.
     */
    RunMetrics &metrics() { return _metrics; }

    /**
     * The run session benches should hand to SuiteRunner::run():
     * telemetry sink, retry/deadline policy, the optional checkpoint
     * journal, and the serve-layer abort/progress hooks.
     */
    RunSession &session() { return _session; }

    /** Cells restored from the checkpoint journal (0 without one). */
    std::size_t restoredCells() const;

    /** Build the run artifact from everything emitted so far. */
    RunArtifact buildArtifact(double totalSeconds) const;

    const std::string &slug() const { return _slug; }

  private:
    std::string _slug;
    std::string _title;
    ExperimentOptions _options;
    unsigned _tableIndex = 0;
    std::vector<ResultTable> _tables;
    std::vector<std::string> _notes;
    RunMetrics _metrics;
    std::unique_ptr<CheckpointJournal> _journal;
    RunSession _session;
};

/** One registered experiment: its identity and its body. */
struct ExperimentDef
{
    std::string slug;
    std::string title;
    std::function<void(ExperimentContext &)> body;
    /**
     * True when the body is a pure store-keyed sweep grid: every
     * cell flows through the content-addressed result store, so the
     * daemon may fan the job out across worker lanes as shards
     * (docs/SERVICE.md). Leave false for bodies with unkeyed
     * columns or cross-cell state - they still run, just unsharded.
     */
    bool shardable = false;
};

/**
 * Register @p def under its slug (replacing any previous def with
 * the same slug, so tests can re-register). The returned reference
 * is stable for the process lifetime.
 */
const ExperimentDef &registerExperiment(ExperimentDef def);

/** Look up a registered experiment; nullptr when unknown. */
const ExperimentDef *findExperiment(const std::string &slug);

/** Slugs of every registered experiment, sorted. */
std::vector<std::string> experimentSlugs();

/**
 * Re-initialise the registry lock in a fork()ed child: a connection
 * thread of the parent daemon may have held it at the instant of the
 * fork, and the child would deadlock on the copied state the first
 * time it looks an experiment up. The registered defs themselves are
 * plain data and survive the fork intact. Call immediately after
 * fork(), from the child's only thread (worker lanes).
 */
void resetExperimentRegistryAfterFork();

/** Outcome of one in-process experiment run. */
struct ExperimentRunResult
{
    /** 0 clean, 1 fatal error, 3 completed but with failed cells. */
    int exitCode = 0;
    /** The run artifact; null only on a fatal error (exitCode 1)
     *  other than a store miss. */
    std::shared_ptr<RunArtifact> artifact;
    /** Cells restored from the checkpoint journal at startup. */
    std::size_t restoredCells = 0;
    /** Total wall time of the run. */
    double seconds = 0.0;
    /** Failure text when exitCode == 1. */
    std::string error;
    /** A store-only run (ExperimentOptions::storeOnly) stopped at a
     *  cell the result store does not hold; exitCode is 1 and the
     *  artifact holds only the metrics gathered so far (the trace
     *  acquisition among them). */
    bool storeMissed = false;
};

/**
 * Run @p def with standard setup/teardown (timing, artifact
 * construction and - with options.jsonDir - persistence, failure
 * reporting). Never calls exit() and never throws: every failure is
 * reported through the result, which is what lets the daemon host
 * runs without dying with them.
 */
ExperimentRunResult
runExperimentInProcess(const ExperimentDef &def,
                       const ExperimentOptions &options);

/**
 * Apply the --quick trace-scale cut: set IBP_EVENTS=0.25 unless the
 * user pinned the scale explicitly. Called by the CLI front end
 * before any trace work; NOT by runExperimentInProcess, because the
 * daemon cannot re-point the process environment per job (it
 * instead admits only jobs whose effective scale matches its own;
 * docs/SERVICE.md).
 */
void applyQuickEventScale();

} // namespace ibp

#endif // IBP_SIM_EXPERIMENT_HH
