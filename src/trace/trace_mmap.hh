/**
 * @file
 * Zero-copy mmap trace format (`.ibpm`, cache format v3), the one
 * on-disk form of the trace cache (trace/trace_cache.hh).
 *
 * The file lays a trace out exactly as it lives in memory
 * (trace/trace.hh): three separate 64-byte-aligned columns (pc,
 * target, packed meta byte; see packBranchMeta). A reader mmaps the
 * file read-only and hands the simulator borrowed columns of the
 * page cache - no parse, no copy, and the bytes are shared between
 * concurrent worker processes by the kernel. Any other magic -
 * including the retired record-array v2 layout - fails validation,
 * so the content-addressed cache treats an old entry as a miss and
 * regenerates it as v3.
 *
 * v3 layout (all integers little-endian):
 *
 *   offset  size  field
 *        0     8  magic "IBPMAP3\0"
 *        8     4  version (3)
 *       12     4  endian tag (0x01020304 as stored)
 *       16     4  address size in bytes (sizeof(Addr) == 4)
 *       20     4  header size in bytes (128)
 *       24     8  generator seed
 *       32     8  record count
 *       40     4  benchmark-name byte count
 *       44     4  site-count hint
 *       48     8  pc column offset (align64(128 + nameBytes))
 *       56     8  target column offset (align64(pc + 4*count))
 *       64     8  meta column offset (align64(target + 4*count))
 *       72     8  file size (meta + count; must equal st_size)
 *       80     8  FNV-1a checksum of the first 80 header bytes
 *       88    40  zero padding to the 128-byte header boundary
 *      128     -  name bytes, then the zero-padded aligned columns
 *
 * The header checksum covers only the first 80 header bytes, so the
 * loader also requires every padding byte to be zero and every meta
 * byte to hold a kind no larger than BranchKind::Return (one
 * vectorised pass over the meta column). A loaded file is therefore
 * byte-identical to the re-encoding of the trace it yields.
 *
 * Every validation failure (bad magic, version skew, foreign
 * endianness, checksum mismatch, truncation, misplaced or
 * out-of-bounds columns, non-zero padding, a bad meta byte) is a
 * permanent RunError; the trace cache treats all of them as a miss
 * and regenerates. See docs/PERFORMANCE.md.
 */

#ifndef IBP_TRACE_TRACE_MMAP_HH
#define IBP_TRACE_TRACE_MMAP_HH

#include <string>

#include "robust/error.hh"
#include "trace/trace.hh"

namespace ibp {

/**
 * True when this host can produce and consume `.ibpm` files: a
 * little-endian host (the build needs Linux, so mmap is always
 * there). On a big-endian host the trace cache stores nothing and
 * every load misses.
 */
bool traceMmapSupported();

/**
 * Serialise @p trace to the v3 columnar byte layout. Deterministic:
 * the same trace always encodes to the same bytes (padding is
 * zeroed). Fails (permanent) when the platform is unsupported.
 */
Result<std::string> encodeTraceMmap(const Trace &trace);

/**
 * Map @p path read-only and wrap its columns in a Trace that borrows
 * them (readPath() == TraceReadPath::Mmap). The mapping stays alive
 * for as long as any copy of the returned Trace does. Any validation
 * failure is a permanent RunError.
 */
Result<Trace> loadTraceMmap(const std::string &path);

/** encodeTraceMmap() + crash-safe atomic write to @p path. */
Result<void> saveTraceMmap(const Trace &trace, const std::string &path);

} // namespace ibp

#endif // IBP_TRACE_TRACE_MMAP_HH
