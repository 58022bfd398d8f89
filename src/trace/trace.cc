#include "trace/trace.hh"

#include <algorithm>

namespace ibp {

std::uint64_t
Trace::countPredictedIndirect() const
{
    const std::uint8_t *meta = columns().meta;
    std::uint64_t count = 0;
    for (std::size_t i = 0, n = size(); i < n; ++i)
        count += branchMetaIsPredictedIndirect(meta[i]);
    return count;
}

std::uint64_t
Trace::countKind(BranchKind kind) const
{
    const std::uint8_t *meta = columns().meta;
    std::uint64_t count = 0;
    for (std::size_t i = 0, n = size(); i < n; ++i)
        count += branchMetaKind(meta[i]) == kind;
    return count;
}

void
Trace::materialise()
{
    if (!_mapping)
        return;
    _pc.assign(_mapped.pc, _mapped.pc + _mappedSize);
    _target.assign(_mapped.target, _mapped.target + _mappedSize);
    _meta.assign(_mapped.meta, _mapped.meta + _mappedSize);
    _mapping.reset();
    _mapped = {};
    _mappedSize = 0;
}

bool
Trace::operator==(const Trace &other) const
{
    if (_name != other._name || _seed != other._seed ||
        size() != other.size())
        return false;
    const TraceColumns mine = columns();
    const TraceColumns theirs = other.columns();
    const std::size_t n = size();
    return std::equal(mine.pc, mine.pc + n, theirs.pc) &&
           std::equal(mine.target, mine.target + n, theirs.target) &&
           std::equal(mine.meta, mine.meta + n, theirs.meta);
}

} // namespace ibp
