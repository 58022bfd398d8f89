/**
 * @file
 * Zero-copy mmap trace format (`.ibpm`, cache format v3).
 *
 * The legacy `.ibpt` stream format deserialises every record through
 * an istream, so a warm trace-cache hit still pays a full parse plus
 * a vector copy per benchmark. The mmap format instead lays the
 * records out on disk in directly consumable shape, so a reader can
 * mmap the file read-only and hand the simulator a borrowed view of
 * the page cache - no parse, no copy, and the bytes are shared
 * between concurrent worker processes by the kernel.
 *
 * v3 stores the branches as three separate 64-byte-aligned columns
 * (pc, target, packed meta byte; see packBranchMeta), which is the
 * shape the SIMD block engine (trace/trace_block.hh) consumes
 * zero-copy. Any other magic - including the retired record-array v2
 * layout - fails validation, so the content-addressed cache treats an
 * old entry as a miss and regenerates it as v3.
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
 * Every validation failure (bad magic, version skew, foreign
 * endianness, checksum mismatch, truncation, misplaced or
 * out-of-bounds columns) is a permanent RunError; the trace cache
 * treats all of them as a miss and falls back to the `.ibpt` stream
 * reader or regeneration. See docs/PERFORMANCE.md.
 */

#ifndef IBP_TRACE_TRACE_MMAP_HH
#define IBP_TRACE_TRACE_MMAP_HH

#include <string>

#include "robust/error.hh"
#include "trace/trace.hh"

namespace ibp {

/**
 * True when this platform can produce and consume `.ibpm` files:
 * little-endian, POSIX mmap. On other platforms the cache
 * transparently sticks to the stream format.
 */
bool traceMmapSupported();

/**
 * Serialise @p trace to the v3 columnar byte layout. Deterministic:
 * the same trace always encodes to the same bytes (padding is
 * zeroed). Fails (permanent) when the platform is unsupported.
 */
Result<std::string> encodeTraceMmap(const Trace &trace);

/**
 * Map @p path read-only and wrap its records in a Trace view
 * (readPath() == TraceReadPath::Mmap), a columnar view of a v3
 * file. The mapping stays alive for
 * as long as any copy of the returned Trace does. Any validation
 * failure is a permanent RunError.
 */
Result<Trace> loadTraceMmap(const std::string &path);

/** encodeTraceMmap() + crash-safe atomic write to @p path. */
Result<void> saveTraceMmap(const Trace &trace, const std::string &path);

} // namespace ibp

#endif // IBP_TRACE_TRACE_MMAP_HH
