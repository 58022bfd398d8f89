#include "trace/trace_cache.hh"

#include <cstdlib>
#include <memory>
#include <utility>

#include "robust/cache_sweep.hh"
#include "trace/trace_mmap.hh"
#include "util/logging.hh"

namespace ibp {

namespace {

std::unique_ptr<TraceCache> &
globalSlot()
{
    // Armed lazily from the environment so tools and tests that
    // never touch the option plumbing still get caching by exporting
    // IBP_TRACE_CACHE=<dir>.
    static std::unique_ptr<TraceCache> cache = [] {
        const char *env = std::getenv("IBP_TRACE_CACHE");
        return (env && *env) ? std::make_unique<TraceCache>(env)
                             : nullptr;
    }();
    return cache;
}

} // namespace

TraceCache::TraceCache(std::string directory)
    : _directory(std::move(directory))
{
}

TraceCache *
TraceCache::global()
{
    return globalSlot().get();
}

void
TraceCache::configureGlobal(const std::string &directory)
{
    globalSlot() = directory.empty()
                       ? nullptr
                       : std::make_unique<TraceCache>(directory);
}

std::string
TraceCache::pathFor(const std::string &key) const
{
    return _directory + "/" + key + ".ibpm";
}

Result<Trace>
TraceCache::load(const std::string &key) const
{
    // A missing file, bad magic, version skew, a bad checksum,
    // truncation or a bad meta byte are all permanent errors, and
    // every one of them reads as "miss" to the caller.
    return loadTraceMmap(pathFor(key));
}

Result<void>
TraceCache::store(const std::string &key, const Trace &trace) const
{
    // A successful write sweeps the directory back under the
    // IBP_CACHE_MAX_BYTES budget when one is set (off by default;
    // eviction is atomic unlink only, so concurrent readers holding
    // an open or mmap'ed entry are never corrupted). On a big-endian
    // host the encoder refuses and the cache stores nothing.
    const auto saved = saveTraceMmap(trace, pathFor(key));
    if (saved.ok())
        maybeSweepCacheDirectory(_directory);
    return saved;
}

Result<TraceAcquisition>
TraceCache::loadValidated(const std::string &key,
                          const std::string &expect_name) const
{
    auto hit = load(key);
    if (!hit.ok())
        return hit.error();
    if (!expect_name.empty() && hit.value().name() != expect_name) {
        return RunError::permanent(
            "cache entry for key '" + key + "' names trace '" +
            hit.value().name() + "', expected '" + expect_name + "'");
    }
    return TraceAcquisition{std::move(hit).value(), true};
}

Result<TraceAcquisition>
TraceCache::getOrGenerate(
    const std::string &key,
    const std::function<Result<Trace>()> &generate,
    const std::string &expect_name) const
{
    std::shared_ptr<Inflight> flight;
    bool leader = false;
    {
        std::lock_guard<std::mutex> lock(_inflightMutex);
        auto &slot = _inflight[key];
        if (!slot) {
            slot = std::make_shared<Inflight>();
            leader = true;
        }
        flight = slot;
    }

    if (!leader) {
        // Wait for the leader's verdict, then read its published
        // entry from disk. The atomic store means the file is either
        // absent or complete - never torn.
        std::unique_lock<std::mutex> lock(flight->mutex);
        flight->cv.wait(lock, [&] { return flight->done; });
        const bool stored = flight->storedToDisk;
        const bool failed = flight->failed;
        const RunError error = flight->error;
        lock.unlock();
        if (stored) {
            auto loaded = loadValidated(key, expect_name);
            if (loaded.ok())
                return loaded;
            warn("trace cache re-load after concurrent store of '%s' "
                 "failed (%s); regenerating",
                 key.c_str(), loaded.error().describe().c_str());
        } else if (failed && !error.retryable()) {
            // The leader's generation failed permanently; rerunning
            // the same generator would fail the same way.
            return error;
        }
        auto made = generate();
        if (!made.ok())
            return made.error();
        return TraceAcquisition{std::move(made).value(), false};
    }

    // Leader: publish the outcome on every exit path so waiters can
    // never hang, and retire the in-flight slot so a later cold pass
    // (e.g. after an external cache wipe) elects a fresh leader.
    bool stored_to_disk = false;
    bool failed = false;
    RunError error;
    Result<TraceAcquisition> outcome = error; // overwritten below
    auto hit = loadValidated(key, expect_name);
    if (hit.ok()) {
        stored_to_disk = true;
        outcome = std::move(hit);
    } else {
        auto made = generate();
        if (!made.ok()) {
            failed = true;
            error = made.error();
            outcome = error;
        } else {
            Trace trace = std::move(made).value();
            auto stored = store(key, trace);
            if (stored.ok()) {
                stored_to_disk = true;
            } else {
                // Best effort: a full disk degrades the cache (every
                // waiter regenerates), never the run.
                warn("trace cache store for key '%s' failed: %s",
                     key.c_str(), stored.error().describe().c_str());
            }
            outcome = TraceAcquisition{std::move(trace), false};
        }
    }
    {
        std::lock_guard<std::mutex> lock(_inflightMutex);
        _inflight.erase(key);
    }
    {
        std::lock_guard<std::mutex> lock(flight->mutex);
        flight->done = true;
        flight->storedToDisk = stored_to_disk;
        flight->failed = failed;
        flight->error = error;
    }
    flight->cv.notify_all();
    return outcome;
}

} // namespace ibp
