/**
 * @file
 * Crash-safe whole-file writes.
 *
 * writeFileAtomic() is the single tmp+fsync+atomic-rename path every
 * durable artifact in the harness goes through: JSON run artifacts
 * (src/report) and cached binary traces (src/trace) both use it.
 * Content lands in a temp file next to the destination (same
 * filesystem, so the final rename is atomic), is flushed and fsynced,
 * then renamed over the target. Readers either see the old file or
 * the complete new one - a crash mid-write can never leave a
 * truncated file behind.
 */

#ifndef IBP_ROBUST_ATOMIC_FILE_HH
#define IBP_ROBUST_ATOMIC_FILE_HH

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "robust/error.hh"

namespace ibp {

/**
 * Atomically replace @p path with @p contents. Parent directories
 * are created recursively. Errors (unwritable directory, full disk,
 * failed rename) come back as a permanent RunError; the temp file is
 * removed on every failure path.
 */
Result<void> writeFileAtomic(const std::string &path,
                             std::string_view contents);

/** One file of a writeFilesAtomic() batch (the caller owns the
 *  bytes until the call returns). */
struct AtomicFileWrite
{
    std::string path;
    std::string_view contents;
};

/** Most temporaries a writeFilesAtomic() call holds open at once. */
inline constexpr std::size_t kAtomicWriteWindow = 64;

/**
 * Batched writeFileAtomic(), in windows of kAtomicWriteWindow files:
 * every temporary of a window is written first, then all are
 * fsynced, then each is renamed over its target. Each file keeps the
 * all-or-nothing guarantee, but a window pays for about one
 * filesystem journal commit instead of one per file (the first fsync
 * commits the transaction the later ones ride), and a batch never
 * holds more than a window's descriptors. Returns one result per
 * file, index-aligned with @p files.
 */
std::vector<Result<void>>
writeFilesAtomic(const std::vector<AtomicFileWrite> &files);

} // namespace ibp

#endif // IBP_ROBUST_ATOMIC_FILE_HH
