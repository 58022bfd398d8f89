/**
 * @file
 * Cache-resident block iteration over a branch trace.
 *
 * The SIMD sweep engine wants the trace as short SoA columns: a few
 * thousand pc/target/meta entries that fit in L1/L2 while every
 * column replays them. A trace already is three columns (trace.hh),
 * so TraceBlockCursor slices them zero-copy: each block is three
 * pointers into the trace's owned or mapped storage, in the same
 * record order as range-for over the trace.
 */

#ifndef IBP_TRACE_TRACE_BLOCK_HH
#define IBP_TRACE_TRACE_BLOCK_HH

#include <algorithm>
#include <cstdint>

#include "trace/trace.hh"

namespace ibp {

/** Records per block: 4096 × (4+4+1)B columns ≈ 36 KiB, L2-resident
 * alongside predictor metadata while still amortising per-block
 * bookkeeping over thousands of branches. */
inline constexpr std::size_t kTraceBlockRecords = 4096;

/** One SoA window of a trace: @c count records starting at global
 * record index @c base. */
struct TraceBlock
{
    const Addr *pc = nullptr;
    const Addr *target = nullptr;
    const std::uint8_t *meta = nullptr;
    std::size_t count = 0;
    std::size_t base = 0;
};

/**
 * Forward iterator over a trace in TraceBlock windows of
 * kTraceBlockRecords. The trace must outlive the cursor and stay
 * unmodified while it is in use.
 */
class TraceBlockCursor
{
  public:
    explicit TraceBlockCursor(const Trace &trace)
        : _columns(trace.columns()), _size(trace.size())
    {
    }

    /**
     * Produce the next block. Returns false (and leaves @p out
     * untouched) once the trace is exhausted.
     */
    bool
    next(TraceBlock &out)
    {
        if (_next >= _size)
            return false;
        out.base = _next;
        out.count = std::min(kTraceBlockRecords, _size - _next);
        out.pc = _columns.pc + _next;
        out.target = _columns.target + _next;
        out.meta = _columns.meta + _next;
        _next += out.count;
        return true;
    }

  private:
    TraceColumns _columns;
    std::size_t _size = 0;
    std::size_t _next = 0;
};

} // namespace ibp

#endif // IBP_TRACE_TRACE_BLOCK_HH
