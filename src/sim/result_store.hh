/**
 * @file
 * Content-addressed on-disk store of simulation results.
 *
 * The trace cache (src/trace/trace_cache.hh) made trace acquisition
 * incremental; this store does the same for the simulation itself.
 * Each (configuration x benchmark) cell is keyed by everything that
 * determines its counters:
 *
 *   cell key = FNV-1a( store format version | simulator version |
 *                      trace cache key | canonical spec hash |
 *                      table implementation )
 *
 * The trace cache key already folds in the generator version, the
 * full benchmark profile, the scaled event count (and therefore
 * IBP_EVENTS / --quick) and the seed; the spec hash is the versioned
 * canonical encoding from core/spec_codec.hh; the simulator version
 * constant below conservatively invalidates EVERYTHING when the
 * simulation semantics change. A warm grid re-run therefore loads
 * exactly the cells whose inputs did not change and re-simulates the
 * rest - bit-identical either way, because entries carry the integer
 * counters the miss rates are derived from.
 *
 * Entries are small JSON files written via the shared
 * tmp+fsync+atomic-rename path, each carrying its own key echo and
 * an FNV-1a checksum over the payload. A corrupt, truncated, or
 * foreign entry is quarantined - renamed to `<file>.corrupt` and
 * counted as invalidated - mirroring the daemon's pending.json
 * policy (docs/SERVICE.md): never fatal, never silently served.
 *
 * The store stays out of the way of fault injection: SuiteRunner
 * bypasses it entirely while the global injector is armed, so
 * injected faults always reach a real simulation.
 */

#ifndef IBP_SIM_RESULT_STORE_HH
#define IBP_SIM_RESULT_STORE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "robust/error.hh"

namespace ibp {

/**
 * Exclusive rights to simulate store cells, held while the owner
 * computes them (sharded lanes and overlapping requests race for
 * them; losers defer and serve the cell from the store once the
 * owner persists it). Backed by open-file-description byte-range
 * locks (fcntl F_OFD_SETLK) on one `claims.lock` file in the store
 * directory: a cell is the byte at an offset hashed from its key. One
 * descriptor holds every cell of a set, however many - a fused chunk
 * claims all its cells at once - and the kernel releases a dead
 * owner's claims automatically: no pid files, no TTLs, no stale-claim
 * reaping, no per-cell files.
 *
 * OFD locks belong to the open file description, not the process, so
 * two claim sets inside ONE process exclude each other exactly like
 * two lane processes do. A default-constructed set (or one whose lock
 * file could not be opened) is lockless: every tryClaim() succeeds,
 * and the worst case is a duplicate simulation whose duplicate
 * store() the atomic-rename write path makes benign. Move-only; the
 * destructor releases every held cell.
 */
class CellClaims
{
  public:
    CellClaims() = default;
    CellClaims(CellClaims &&other) noexcept;
    CellClaims &operator=(CellClaims &&other) noexcept;
    CellClaims(const CellClaims &) = delete;
    CellClaims &operator=(const CellClaims &) = delete;
    ~CellClaims();

    /** Claim @p key without blocking. True: the cell is ours until
     *  release(). False: another set holds it - or this set already
     *  does, and the duplicate defers to the first. */
    bool tryClaim(const std::string &key);

    /** Drop every held cell (closes the lock descriptor).
     *  Idempotent; called by the destructor. */
    void release();

  private:
    friend class ResultStore;
    explicit CellClaims(int fd) : _fd(fd) {}

    int _fd = -1;
    /** Lock offsets this set holds. */
    std::vector<std::int64_t> _held;
};

/** The claim on one store cell (ResultStore::tryClaim): a CellClaims
 *  set of at most one cell. Move-only; the destructor releases. */
class CellClaim
{
  public:
    enum class State
    {
        /** Default-constructed or released: no claim held. */
        None,
        /** We hold the cell; simulate it, then release(). */
        Acquired,
        /** Someone else holds it; defer and poll the store. */
        Busy,
    };

    CellClaim() = default;
    CellClaim(CellClaim &&other) noexcept;
    CellClaim &operator=(CellClaim &&other) noexcept;

    State state() const { return _state; }
    bool acquired() const { return _state == State::Acquired; }
    bool busy() const { return _state == State::Busy; }

    /** Drop the claim (destruction does too). Idempotent. */
    void release();

  private:
    friend class ResultStore;

    State _state = State::None;
    CellClaims _claims;
};

/** One persisted simulation cell. */
struct StoredResult
{
    std::string benchmark;
    /** Predictor name, informational (keys never depend on it). */
    std::string predictor;
    /**
     * False for entries written back from a checkpoint journal,
     * which records only the full-precision miss rate: such entries
     * restore the grid value but carry no counters to replay into
     * cell telemetry.
     */
    bool hasCounters = true;
    std::uint64_t branches = 0;
    std::uint64_t misses = 0;
    std::uint64_t noPrediction = 0;
    std::uint64_t tableOccupancy = 0;
    std::uint64_t tableCapacity = 0;
    /** Wall times of the run that computed the cell. */
    double seconds = 0.0;
    double groupSeconds = 0.0;
    bool sharedTraversal = false;
    /** Authoritative when hasCounters is false. */
    double missPercent = 0.0;
};

class ResultStore
{
  public:
    /** Default directory used by `--result-store` with no value. */
    static constexpr const char *kDefaultDirectory =
        "out/result-store";

    /**
     * Simulator version constant: the content-address of the
     * simulation SEMANTICS. Bump whenever simulate()/simulateMany()
     * or any predictor's behaviour changes in a counter-visible way;
     * every stored cell then misses and is recomputed.
     */
    static constexpr std::uint64_t kSimulatorVersion = 1;

    /**
     * The version folded into cell keys: kSimulatorVersion, unless
     * the IBP_RESULT_STORE_VERSION environment variable overrides it
     * (CI uses the override to prove a version bump invalidates a
     * warm store without recompiling).
     */
    static std::uint64_t effectiveSimulatorVersion();

    explicit ResultStore(std::string directory);

    /**
     * The process-wide store, armed from the IBP_RESULT_STORE
     * environment variable (its value is the store directory) on
     * first use, or by configureGlobal(). nullptr when disabled.
     */
    static ResultStore *global();

    /**
     * Re-point the process-wide store at @p directory ("" disables).
     * Not thread-safe against concurrent global() users; call from
     * startup or single-threaded test setup only.
     */
    static void configureGlobal(const std::string &directory);

    const std::string &directory() const { return _directory; }

    /**
     * Content address of one cell. @p traceKey is
     * benchmarkTraceCacheKey(...); @p specHash is the canonical
     * predictor-spec hash (core/spec_codec.hh). The effective
     * simulator version and the active table implementation are
     * folded in here.
     */
    static std::string cellKey(const std::string &traceKey,
                               std::uint64_t specHash);

    /** File an entry for @p key lives in: `<dir>/<key>.json`. */
    std::string pathFor(const std::string &key) const;

    enum class LoadStatus
    {
        Hit,
        /** No entry on disk (the common cold case). */
        Miss,
        /** Entry existed but failed validation and was quarantined
         *  (renamed to `<file>.corrupt`). */
        Invalidated,
    };

    struct LoadOutcome
    {
        LoadStatus status = LoadStatus::Miss;
        StoredResult result;
    };

    /**
     * Load the entry for @p key. Validation covers JSON
     * well-formedness, the embedded checksum, and the key echo (a
     * foreign file under our name); any failure quarantines the
     * entry and reports Invalidated. Never throws, never fatal.
     */
    LoadOutcome load(const std::string &key) const;

    /**
     * Durably persist @p result under @p key (tmp+fsync+rename; the
     * directory is created if needed). Failures are reported, not
     * fatal: a full disk degrades the store, never the run. When
     * IBP_CACHE_MAX_BYTES is set, a successful store sweeps the
     * directory back under the cap (robust/cache_sweep.hh).
     */
    Result<void> store(const std::string &key,
                       const StoredResult &result) const;

    /** One entry of a storeAll() batch. */
    struct Entry
    {
        std::string key;
        StoredResult result;
    };

    /**
     * store() for a batch - a fused chunk's cells - through one
     * batched durable write (writeFilesAtomic): the same per-entry
     * guarantees for about one filesystem journal commit instead of
     * one per cell. One result per entry, index-aligned.
     */
    std::vector<Result<void>>
    storeAll(const std::vector<Entry> &entries) const;

    /** True when an entry file for @p key exists (no validation);
     *  the exactly-once journal write-back check. */
    bool contains(const std::string &key) const;

    /**
     * Open a claim set on this store (see CellClaims). An I/O
     * failure (store directory gone, descriptor exhaustion) is
     * warned about and degrades to a lockless set - availability
     * over exclusivity.
     */
    CellClaims claims() const;

    /** Claim the one cell @p key (non-blocking): Acquired on
     *  success, Busy when a live peer holds it. */
    CellClaim tryClaim(const std::string &key) const;

  private:
    std::string _directory;
};

} // namespace ibp

#endif // IBP_SIM_RESULT_STORE_HH
