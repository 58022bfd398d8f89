/**
 * @file
 * Trace serialisation.
 *
 * Two formats:
 *  - a compact little-endian binary format with a versioned header
 *    ("IBPT"), for bulk storage of generated traces;
 *  - a line-oriented text format (one record per line:
 *    "<kind> <pc-hex> <target-hex> <taken>"), for debugging and for
 *    importing traces produced by external tools (Pin/ChampSim-style
 *    dumps can be converted to this with a one-line awk script).
 *
 * All entry points return Result rather than fatal()ing: a malformed
 * or truncated trace is external input, and one bad file must not be
 * able to kill a multi-hour sweep (see docs/ROBUSTNESS.md). Errors
 * are permanent - re-reading a corrupt file cannot succeed.
 */

#ifndef IBP_TRACE_TRACE_IO_HH
#define IBP_TRACE_TRACE_IO_HH

#include <iosfwd>
#include <string>

#include "robust/error.hh"
#include "trace/trace.hh"

namespace ibp {

/** Write @p trace to @p out in the binary format. */
Result<void> writeTraceBinary(const Trace &trace, std::ostream &out);

/** Read a binary-format trace; error on malformed input, including
 * bytes after the last record. */
Result<Trace> readTraceBinary(std::istream &in);

/** Write @p trace to @p out in the text format (with '#' metadata). */
Result<void> writeTraceText(const Trace &trace, std::ostream &out);

/** Read a text-format trace; error on malformed input. */
Result<Trace> readTraceText(std::istream &in);

/** Convenience file wrappers; format chosen by extension
 * (".ibpt" binary, anything else text). */
Result<void> saveTrace(const Trace &trace, const std::string &path);
Result<Trace> loadTrace(const std::string &path);

} // namespace ibp

#endif // IBP_TRACE_TRACE_IO_HH
