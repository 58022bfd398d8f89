/**
 * @file
 * Cache-resident block iteration over a branch trace.
 *
 * The SIMD sweep engine wants the trace as short SoA columns: a few
 * thousand pc/target/meta entries that fit in L1/L2 while every
 * column replays them. TraceBlockCursor produces exactly
 * that from either trace storage form:
 *
 *  - columnar traces (the v3 `.ibpm` mmap layout) are sliced
 *    zero-copy — each block is three pointers into the file;
 *  - record traces (owned vectors, v2 views, stream parses) are
 *    transposed block-by-block into a reused scratch buffer, so the
 *    transpose cost stays inside the cache-resident window instead
 *    of materialising a second full-trace copy.
 *
 * Either way consumers see the same TraceBlock and the same record
 * order as Trace::records(), so block-based simulation is a pure
 * traversal change, not a semantic one.
 */

#ifndef IBP_TRACE_TRACE_BLOCK_HH
#define IBP_TRACE_TRACE_BLOCK_HH

#include <algorithm>
#include <cstdint>
#include <vector>

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
 * Forward iterator over a trace in TraceBlock windows. The trace
 * must outlive the cursor; blocks are invalidated by the next call
 * to next() (the scratch buffer is reused).
 */
class TraceBlockCursor
{
  public:
    explicit TraceBlockCursor(const Trace &trace,
                              std::size_t blockRecords = kTraceBlockRecords)
        : _block(blockRecords), _columnar(trace.isColumnar())
    {
        if (_columnar) {
            _columns = trace.columns();
            _size = trace.size();
        } else {
            _records = trace.data();
            _size = trace.size();
            _pc.resize(blockRecords);
            _target.resize(blockRecords);
            _meta.resize(blockRecords);
        }
    }

    /** True when blocks alias the trace's own columns (no per-block
     * transpose happens). Telemetry only. */
    bool columnarSource() const { return _columnar; }

    /**
     * Produce the next block. Returns false (and leaves @p out
     * untouched) once the trace is exhausted.
     */
    bool
    next(TraceBlock &out)
    {
        if (_next >= _size)
            return false;
        const std::size_t base = _next;
        const std::size_t count = std::min(_block, _size - base);
        _next = base + count;
        if (_columnar) {
            out.pc = _columns.pc + base;
            out.target = _columns.target + base;
            out.meta = _columns.meta + base;
        } else {
            const BranchRecord *records = _records + base;
            for (std::size_t i = 0; i < count; ++i) {
                const BranchRecord &record = records[i];
                _pc[i] = record.pc;
                _target[i] = record.target;
                _meta[i] = packBranchMeta(record.kind, record.taken);
            }
            out.pc = _pc.data();
            out.target = _target.data();
            out.meta = _meta.data();
        }
        out.count = count;
        out.base = base;
        return true;
    }

  private:
    const std::size_t _block;
    const bool _columnar;
    TraceColumns _columns;
    const BranchRecord *_records = nullptr;
    std::size_t _size = 0;
    std::size_t _next = 0;
    std::vector<Addr> _pc;
    std::vector<Addr> _target;
    std::vector<std::uint8_t> _meta;
};

} // namespace ibp

#endif // IBP_TRACE_TRACE_BLOCK_HH
