/**
 * @file
 * Checkpoint/resume journal for interrupted sweeps.
 *
 * A CheckpointJournal is an append-only file of JSON lines. The
 * first line is a header binding the journal to one experiment
 * configuration (slug, git SHA, event scale, quick flag); every
 * subsequent line records one completed (grid, column, benchmark)
 * cell with its full-precision miss rate, or the *start* of a cell
 * attempt (a `start` line with no miss rate). SuiteRunner appends a
 * line (flushed and fsynced) after each cell completes, and on a
 * resumed run consults the journal before simulating, so a killed
 * sweep restarts where it died instead of from zero.
 *
 * Start lines are the crash forensics: a cell with N start records
 * from *prior* incarnations but no completion was in flight when
 * each of those incarnations died. The resuming run feeds that
 * count into fault-injection attempt numbers (so a deterministic
 * injected crash clears on the retried incarnation) and poisons
 * cells whose prior-start count reaches the retry policy's
 * threshold — a cell that keeps killing the process is recorded as
 * a FailedCell instead of crash-looping forever (docs/ROBUSTNESS.md).
 *
 * Grid ids disambiguate the repeated run() calls a bench makes with
 * identical column labels (e.g. fig11 sweeps table sizes row by
 * row); they are assigned in call order, which is deterministic.
 *
 * Crash tolerance: a process killed mid-append leaves at most one
 * truncated final line, which load() drops. A header that does not
 * match the resuming run is an error - resuming across different
 * binaries or trace scales would silently splice incomparable
 * numbers.
 */

#ifndef IBP_ROBUST_CHECKPOINT_HH
#define IBP_ROBUST_CHECKPOINT_HH

#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "robust/error.hh"

namespace ibp {

/** Identity a journal is bound to; all fields must match to resume. */
struct CheckpointMeta
{
    std::string slug;
    std::string gitSha;
    double eventScale = 1.0;
    bool quick = false;

    /** Empty string when compatible; otherwise what differs. */
    std::string mismatch(const CheckpointMeta &other) const;
};

/** One completed simulation cell. */
struct CheckpointCell
{
    unsigned grid = 0;
    std::string column;
    std::string benchmark;
    double missPercent = 0.0;
};

/** Identity of a cell attempt about to begin (start record). */
struct CheckpointStart
{
    unsigned grid = 0;
    std::string column;
    std::string benchmark;
};

class CheckpointJournal
{
  public:
    ~CheckpointJournal();
    CheckpointJournal(const CheckpointJournal &) = delete;
    CheckpointJournal &operator=(const CheckpointJournal &) = delete;

    /**
     * Open @p path for @p meta. A missing file starts a fresh
     * journal; an existing one is validated against @p meta and its
     * completed cells become resumable. Errors: unwritable path,
     * corrupt header, or a meta mismatch.
     */
    static Result<std::unique_ptr<CheckpointJournal>>
    open(const std::string &path, const CheckpointMeta &meta);

    /** Miss rate of a previously completed cell, if recorded. */
    std::optional<double> lookup(unsigned grid,
                                 const std::string &column,
                                 const std::string &benchmark) const;

    /** Durably append one completed cell. Thread-safe. */
    Result<void> append(const CheckpointCell &cell);

    /** Batched append: one write + fsync for a whole set of
     *  completed cells (a fused chunk, a run's store hits).
     *  Thread-safe. */
    Result<void> appendCells(const std::vector<CheckpointCell> &cells);

    /** Durably record that an attempt at @p start is beginning. */
    Result<void> appendStart(const CheckpointStart &start);

    /** Batched appendStart: one write + fsync for a whole fused
     *  chunk instead of one per member cell. Thread-safe. */
    Result<void>
    appendStarts(const std::vector<CheckpointStart> &starts);

    /**
     * Start records loaded from *prior* incarnations at open() time
     * for a cell with no completion record. Frozen at open: starts
     * appended by this incarnation are not counted, so the value is
     * stable however many in-process retries this run makes.
     */
    unsigned startedCountPrior(unsigned grid,
                               const std::string &column,
                               const std::string &benchmark) const;

    /** Cells restored from a previous run at open() time. */
    std::size_t restoredCells() const { return _restored; }

    const std::string &path() const { return _path; }

  private:
    CheckpointJournal() = default;

    Result<void> appendLines(const std::string &lines);

    using Key = std::tuple<unsigned, std::string, std::string>;

    std::string _path;
    std::FILE *_file = nullptr;
    mutable std::mutex _mutex;
    std::map<Key, double> _cells;
    std::map<Key, unsigned> _priorStarts;
    std::size_t _restored = 0;
};

} // namespace ibp

#endif // IBP_ROBUST_CHECKPOINT_HH
