#include "robust/cache_sweep.hh"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <vector>

#include "util/logging.hh"

namespace ibp {

std::uint64_t
cacheMaxBytesFromEnv()
{
    const char *env = std::getenv("IBP_CACHE_MAX_BYTES");
    if (!env || !*env)
        return 0;
    char *end = nullptr;
    const unsigned long long parsed = std::strtoull(env, &end, 10);
    if (end == env || *end != '\0')
        return 0;
    return static_cast<std::uint64_t>(parsed);
}

Result<CacheSweepStats>
sweepDirectoryToBudget(const std::string &directory,
                       std::uint64_t max_bytes)
{
    namespace fs = std::filesystem;
    CacheSweepStats stats;

    std::error_code ec;
    if (!fs::exists(directory, ec) || ec)
        return stats;

    struct Entry
    {
        fs::path path;
        fs::file_time_type mtime;
        std::uint64_t size = 0;
    };
    std::vector<Entry> entries;
    for (fs::directory_iterator it(directory, ec), end;
         !ec && it != end; it.increment(ec)) {
        std::error_code probe;
        if (!it->is_regular_file(probe) || probe)
            continue;
        // A lock file holds no cached bytes, and unlinking one while
        // held would split its holders from later contenders.
        if (it->path().extension() == ".lock")
            continue;
        Entry entry;
        entry.path = it->path();
        entry.mtime = fs::last_write_time(entry.path, probe);
        if (probe)
            continue;
        entry.size = static_cast<std::uint64_t>(
            fs::file_size(entry.path, probe));
        if (probe)
            continue;
        stats.bytesBefore += entry.size;
        entries.push_back(std::move(entry));
    }
    if (ec) {
        return RunError::permanent("cannot scan cache directory '" +
                                   directory + "': " + ec.message());
    }

    stats.bytesAfter = stats.bytesBefore;
    if (stats.bytesAfter <= max_bytes)
        return stats;

    // Oldest first; equal mtimes (coarse filesystems) tie-break on
    // the path so the victim order is deterministic.
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  if (a.mtime != b.mtime)
                      return a.mtime < b.mtime;
                  return a.path < b.path;
              });

    for (const Entry &entry : entries) {
        if (stats.bytesAfter <= max_bytes)
            break;
        // Unlink only: a reader holding the file open (or mmap'ed)
        // keeps its complete view; the name simply becomes a miss.
        std::error_code unlink_ec;
        if (!fs::remove(entry.path, unlink_ec) || unlink_ec)
            continue;
        stats.bytesAfter -= std::min(stats.bytesAfter, entry.size);
        ++stats.filesRemoved;
    }
    return stats;
}

void
maybeSweepCacheDirectory(const std::string &directory)
{
    const std::uint64_t max_bytes = cacheMaxBytesFromEnv();
    if (max_bytes == 0)
        return;
    const auto swept = sweepDirectoryToBudget(directory, max_bytes);
    if (!swept.ok()) {
        warn("cache sweep of '%s' failed: %s", directory.c_str(),
             swept.error().describe().c_str());
    }
}

} // namespace ibp
