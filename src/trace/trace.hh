/**
 * @file
 * In-memory branch trace with benchmark metadata.
 */

#ifndef IBP_TRACE_TRACE_HH
#define IBP_TRACE_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "trace/branch_record.hh"

namespace ibp {

/** How a trace's records reached memory (artifact telemetry). */
enum class TraceReadPath : std::uint8_t
{
    Generated = 0, ///< Generated or parsed into owned columns.
    Mmap = 1,      ///< Borrowed columns of an mmap'ed .ibpm cache file.
};

/**
 * The column pointers of a trace: parallel pc/target arrays and the
 * packed meta byte per record (packBranchMeta). Valid while the
 * Trace that produced them is alive and unmodified; borrowed columns
 * stay valid while any copy of it is.
 */
struct TraceColumns
{
    const Addr *pc = nullptr;
    const Addr *target = nullptr;
    const std::uint8_t *meta = nullptr;

    /** Record @p i, rebuilt by value from the three columns. */
    BranchRecord
    record(std::size_t i) const
    {
        return {pc[i], target[i], branchMetaKind(meta[i]),
                branchMetaTaken(meta[i])};
    }
};

/**
 * A branch trace: an ordered sequence of branches plus metadata
 * identifying the (synthetic) benchmark it came from. Traces are
 * value types; the simulator only ever reads them.
 *
 * A trace is a record count and three columns: pc, target and the
 * packed meta byte (packBranchMeta), the shape both the block engine
 * (trace_block.hh) and the `.ibpm` cache file (trace_mmap.hh) use.
 * The columns are either owned (generated or parsed traces) or
 * borrowed from a mapping that a shared backing object keeps alive
 * (a `.ibpm` load). Record-at-a-time readers get each BranchRecord
 * by value, through operator[] or range-for. A mutation
 * (append/reserve) of a borrowed trace first copies the columns
 * into owned storage.
 */
class Trace
{
  public:
    /** Input iterator yielding each record by value. */
    class Iterator
    {
      public:
        using iterator_category = std::input_iterator_tag;
        using value_type = BranchRecord;
        using difference_type = std::ptrdiff_t;
        using pointer = void;
        using reference = BranchRecord;

        Iterator() = default;
        Iterator(TraceColumns columns, std::size_t index)
            : _columns(columns), _index(index)
        {
        }

        BranchRecord operator*() const { return _columns.record(_index); }

        Iterator &
        operator++()
        {
            ++_index;
            return *this;
        }

        Iterator
        operator++(int)
        {
            Iterator old = *this;
            ++_index;
            return old;
        }

        bool
        operator==(const Iterator &other) const
        {
            return _index == other._index;
        }

      private:
        TraceColumns _columns;
        std::size_t _index = 0;
    };

    Trace() = default;
    explicit Trace(std::string name) : _name(std::move(name)) {}

    const std::string &name() const { return _name; }
    void setName(std::string name) { _name = std::move(name); }

    /** Seed the trace was generated from (0 if unknown/recorded). */
    std::uint64_t seed() const { return _seed; }
    void setSeed(std::uint64_t seed) { _seed = seed; }

    /**
     * Number of distinct indirect branch sites the generator emitted
     * (0 when unknown). Pre-sizes per-site accounting in simulate().
     */
    std::uint32_t siteCountHint() const { return _siteCountHint; }
    void setSiteCountHint(std::uint32_t count) { _siteCountHint = count; }

    /** Transport the records arrived by; metadata only, not
     * identity (excluded from operator==). */
    TraceReadPath readPath() const { return _readPath; }
    void setReadPath(TraceReadPath path) { _readPath = path; }

    void
    reserve(std::size_t n)
    {
        materialise();
        _pc.reserve(n);
        _target.reserve(n);
        _meta.reserve(n);
    }

    void
    append(const BranchRecord &record)
    {
        materialise();
        _pc.push_back(record.pc);
        _target.push_back(record.target);
        _meta.push_back(packBranchMeta(record.kind, record.taken));
    }

    std::size_t size() const { return _mapping ? _mappedSize : _pc.size(); }

    bool empty() const { return size() == 0; }

    /** The column pointers (owned or borrowed); block consumers and
     * the `.ibpm` writer read these directly. */
    TraceColumns
    columns() const
    {
        if (_mapping)
            return _mapped;
        return {_pc.data(), _target.data(), _meta.data()};
    }

    BranchRecord
    operator[](std::size_t i) const
    {
        return columns().record(i);
    }

    Iterator begin() const { return {columns(), 0}; }
    Iterator end() const { return {columns(), size()}; }

    /**
     * Build a trace over borrowed columns (the v3 `.ibpm` layout):
     * parallel @p pc / @p target arrays and a packed meta byte per
     * record (packBranchMeta). @p backing keeps the columns alive as
     * long as any copy of the returned trace exists.
     */
    static Trace
    fromColumnarView(std::string name, std::uint64_t seed,
                     std::shared_ptr<const void> backing,
                     const Addr *pc, const Addr *target,
                     const std::uint8_t *meta, std::size_t count)
    {
        Trace trace(std::move(name));
        trace._seed = seed;
        trace._mapping = std::move(backing);
        trace._mapped = {pc, target, meta};
        trace._mappedSize = count;
        return trace;
    }

    /** Count records of the kinds predicted as indirect branches. */
    std::uint64_t countPredictedIndirect() const;

    /** Count records of one specific kind. */
    std::uint64_t countKind(BranchKind kind) const;

    /**
     * Trace identity: name, seed and records. Transport metadata
     * (read path, site-count hint, owned-vs-borrowed storage) is
     * excluded, so a cache round trip compares equal to the
     * generated original.
     */
    bool operator==(const Trace &other) const;

  private:
    /** Copy borrowed columns into owned storage before mutating. */
    void materialise();

    std::string _name;
    std::uint64_t _seed = 0;
    std::uint32_t _siteCountHint = 0;
    TraceReadPath _readPath = TraceReadPath::Generated;
    /** Owned columns; empty while the trace borrows a mapping. */
    std::vector<Addr> _pc;
    std::vector<Addr> _target;
    std::vector<std::uint8_t> _meta;
    /** Keeps borrowed columns alive; null for owned columns. */
    std::shared_ptr<const void> _mapping;
    TraceColumns _mapped;
    std::size_t _mappedSize = 0;
};

} // namespace ibp

#endif // IBP_TRACE_TRACE_HH
