/**
 * @file
 * Content-addressed on-disk cache of generated traces.
 *
 * Regenerating the 17 synthetic benchmark traces is the dominant
 * startup cost of every bench binary; the cache makes it a one-time
 * cost per configuration. Entries are stored in the zero-copy mmap
 * `.ibpm` format (see trace/trace_mmap.hh) under a single directory,
 * one file per *key* - an opaque content address computed by the
 * producer from everything that determines the trace bytes (see
 * benchmarkTraceCacheKey() in src/synth, which hashes the generator
 * version, the full benchmark profile, the scaled event count, the
 * seed and the emit-conditionals flag). A configuration change
 * therefore changes the key and misses cleanly; stale entries are
 * never consulted and the directory can be deleted at any time.
 *
 * A warm load mmaps the entry read-only and hands the simulator its
 * borrowed columns (Trace::readPath() == TraceReadPath::Mmap). An
 * entry that is absent or fails validation is a miss, and
 * getOrGenerate() regenerates and rewrites it; no other file at the
 * key is ever read. On a big-endian host, where the `.ibpm` encoder
 * refuses, store() fails and every load misses.
 *
 * Writes go through the shared tmp+fsync+atomic-rename path, so
 * concurrent producers and a crash mid-store can never leave a
 * truncated entry behind; a corrupt entry (torn by external
 * interference) fails the `.ibpm` reader's validation and is treated
 * as a miss. See docs/PERFORMANCE.md.
 */

#ifndef IBP_TRACE_TRACE_CACHE_HH
#define IBP_TRACE_TRACE_CACHE_HH

#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "robust/error.hh"
#include "trace/trace.hh"

namespace ibp {

/** Outcome of TraceCache::getOrGenerate. */
struct TraceAcquisition
{
    Trace trace;
    /** True when the trace was served from the on-disk cache (a
     *  load, including one that waited for a concurrent generator);
     *  false when this caller ran the generator itself. */
    bool fromCache = false;
};

class TraceCache
{
  public:
    /** Default directory used by `--trace-cache` with no value. */
    static constexpr const char *kDefaultDirectory = "out/trace-cache";

    explicit TraceCache(std::string directory);

    /**
     * The process-wide cache, armed from the IBP_TRACE_CACHE
     * environment variable (its value is the cache directory) on
     * first use, or by configureGlobal(). nullptr when disabled.
     */
    static TraceCache *global();

    /**
     * Re-point the process-wide cache at @p directory ("" disables).
     * Not thread-safe against concurrent global() users; call from
     * startup or single-threaded test setup only.
     */
    static void configureGlobal(const std::string &directory);

    const std::string &directory() const { return _directory; }

    /** File an entry for @p key lives in: `<dir>/<key>.ibpm`. */
    std::string pathFor(const std::string &key) const;

    /**
     * Load the entry for @p key. A missing, truncated, or otherwise
     * malformed entry is a permanent RunError - callers treat any
     * error as a cache miss and regenerate.
     */
    Result<Trace> load(const std::string &key) const;

    /**
     * Durably store @p trace under @p key (tmp+fsync+rename; the
     * directory is created if needed). Failures are reported, not
     * fatal: a full disk degrades the cache, never the run.
     */
    Result<void> store(const std::string &key,
                       const Trace &trace) const;

    /**
     * Load the entry for @p key, or run @p generate (and store the
     * result) on a miss - with in-process coordination so concurrent
     * callers of the same cold key produce ONE generation: the first
     * caller becomes the leader (load, else generate + store), every
     * other caller blocks until the leader publishes and then loads
     * the freshly stored entry from disk, which the atomic
     * tmp+fsync+rename write guarantees is never torn. This is what
     * lets many daemon clients share one warm trace cache safely.
     *
     * @p expectName, when non-empty, rejects a loaded entry whose
     * trace name differs (a foreign file under our key) as a miss.
     *
     * Degradation: if the leader's store fails (full disk) or its
     * generation fails, waiters fall back to generating themselves;
     * a permanent generation error from the leader is propagated to
     * waiters without re-running the generator.
     */
    Result<TraceAcquisition>
    getOrGenerate(const std::string &key,
                  const std::function<Result<Trace>()> &generate,
                  const std::string &expectName = "") const;

  private:
    /** One in-flight cold-key generation; waiters block on cv. */
    struct Inflight
    {
        std::mutex mutex;
        std::condition_variable cv;
        bool done = false;
        /** Leader outcome: entry on disk worth loading. */
        bool storedToDisk = false;
        /** Leader outcome: generation failed with this error. */
        bool failed = false;
        RunError error;
    };

    Result<TraceAcquisition>
    loadValidated(const std::string &key,
                  const std::string &expectName) const;

    std::string _directory;

    /** Guards _inflight; per-key waiting happens on Inflight::cv. */
    mutable std::mutex _inflightMutex;
    mutable std::map<std::string, std::shared_ptr<Inflight>> _inflight;
};

} // namespace ibp

#endif // IBP_TRACE_TRACE_CACHE_HH
