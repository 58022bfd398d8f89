/**
 * @file
 * Several set-associative LRU tables of equal set count and different
 * associativity, fed one access stream, held as ONE structure
 * (section 5.2's organisation sweep, run in one pass).
 *
 * A set-associative table picks the set from the key's low bits and
 * keeps the rest as the tag (SetAssocTable::indexOf/tagOf); both
 * depend on the set count alone, so tables of equal set count see the
 * same keys in the same sets under the same tags. Within a set each
 * table replaces LRU, so LRU inclusion (Mattson et al., 1970) holds
 * per set (Hill & Smith, 1989, for bit-selection set mapping): a tag
 * is resident in a w-way member exactly when its depth in the set's
 * recency list - the number of distinct tags accessed in the set
 * since its own last access - is below w. One recency list per set,
 * as deep as the largest member's ways, answers every member.
 *
 * Per way the structure stores the tag and one TableEntry per member,
 * because the members' entries differ: a member the tag fell out of
 * lost its entry and starts over on the next access. Recency is a
 * per-set list of tags and way indices in depth order, so a hit moves
 * a few tags and bytes, never an entry.
 *
 * Counters are bit-identical to one SetAssocTable per member: the
 * differential tests in tests/sim pin the lane engine's set stacks
 * against solo simulate() runs on the reference tables.
 */

#ifndef IBP_CORE_SET_STACK_HH
#define IBP_CORE_SET_STACK_HH

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/set_assoc_table.hh"
#include "core/table.hh"
#include "util/bits.hh"
#include "util/logging.hh"

namespace ibp {

class SetStack
{
  public:
    /** @p ways: the members' associativities, strictly ascending,
     *  each >= 1; @p sets: their shared set count, a power of two. */
    SetStack(std::vector<unsigned> ways, std::uint64_t sets,
             EntryCounterSpec counters)
        : _ways(std::move(ways)), _sets(sets), _counters(counters)
    {
        IBP_ASSERT(!_ways.empty() && _ways.front() >= 1,
                   "set stack needs members of >= 1 way");
        for (std::size_t k = 1; k < _ways.size(); ++k) {
            IBP_ASSERT(_ways[k - 1] < _ways[k],
                       "set stack ways must ascend strictly");
        }
        IBP_ASSERT(_ways.back() <= 255, "set stack of %u ways",
                   _ways.back());
        IBP_ASSERT(isPowerOfTwo(_sets), "set count %llu not a power of two",
                   static_cast<unsigned long long>(_sets));
        _depth = _ways.back();
        _indexBits = floorLog2(_sets);
        _tags.assign(_sets * _depth, 0);
        _wayAt.assign(_sets * _depth, 0);
        _filled.assign(_sets, 0);
        _entries.resize(_sets * _depth * _ways.size());
    }

    std::size_t members() const { return _ways.size(); }
    std::uint64_t capacity(std::size_t member) const
    {
        return _sets * _ways[member];
    }

    /** Valid entries of @p member's table: each set holds the
     *  distinct tags inserted into it, up to the member's ways. */
    std::uint64_t
    occupancy(std::size_t member) const
    {
        std::uint64_t count = 0;
        for (const std::uint8_t filled : _filled)
            count += std::min<unsigned>(filled, _ways[member]);
        return count;
    }

    /** Pull @p key's set toward the cache ahead of probe(). */
    void
    prefetch(const Key &key) const
    {
        const std::uint64_t set = SetAssocTable::indexOf(key, _indexBits);
        IBP_PREFETCH(&_tags[set * _depth]);
        IBP_PREFETCH(&_entries[set * _depth * _ways.size()]);
    }

    /**
     * Read-only lookup; recency does not move. Returns the key's row
     * of member entries (members() of them, ascending ways), or
     * nullptr when no member holds the key, and sets @p resident to
     * the first member that holds it: members [resident, members())
     * do, the smaller ones do not (resident == members() for a key
     * outside the stack). The lookup is remembered for access().
     */
    const TableEntry *
    probe(const Key &key, std::uint32_t &resident)
    {
        _memoKey = key;
        _memoSet = SetAssocTable::indexOf(key, _indexBits);
        _memoTag = SetAssocTable::tagOf(key, _indexBits);
        const std::uint64_t *tags = &_tags[_memoSet * _depth];
        const unsigned filled = _filled[_memoSet];
        unsigned depth = 0;
        while (depth < filled && tags[depth] != _memoTag)
            ++depth;
        _memoDepth = depth < filled ? depth : kNone;
        std::uint32_t k = 0;
        if (_memoDepth == kNone) {
            k = static_cast<std::uint32_t>(_ways.size());
        } else {
            while (_ways[k] <= depth)
                ++k; // depth < filled <= the largest member's ways
        }
        _memoResident = k;
        resident = k;
        return _memoDepth == kNone
                   ? nullptr
                   : row(_memoSet, _wayAt[_memoSet * _depth + depth]);
    }

    /**
     * Find or allocate the probed key's way and make it the most
     * recent in its set. Members below the resident boundary probe()
     * reported (all of them for a new key) get their entry reset and
     * must train it as replaced. probe(@p key) must be the stack's
     * last probe.
     */
    TableEntry *
    access(const Key &key)
    {
        IBP_ASSERT(_memoKey == key, "set stack access without probe");
        std::uint64_t *tags = &_tags[_memoSet * _depth];
        std::uint8_t *way_at = &_wayAt[_memoSet * _depth];
        unsigned depth = _memoDepth;
        if (depth == kNone) {
            // A new tag takes a fresh way, or the largest member's
            // LRU victim once the set is full.
            std::uint8_t &filled = _filled[_memoSet];
            if (filled < _depth) {
                way_at[filled] = filled;
                ++filled;
            }
            depth = filled - 1u;
            tags[depth] = _memoTag;
        }
        const std::uint64_t tag = tags[depth];
        const std::uint8_t way = way_at[depth];
        for (unsigned d = depth; d > 0; --d) {
            tags[d] = tags[d - 1];
            way_at[d] = way_at[d - 1];
        }
        tags[0] = tag;
        way_at[0] = way;
        TableEntry *entries = row(_memoSet, way);
        for (std::uint32_t k = 0; k < _memoResident; ++k)
            entries[k].resetFor(_counters.confidenceBits,
                                _counters.chosenBits);
        return entries;
    }

  private:
    static constexpr unsigned kNone = 0xffffffffu;

    TableEntry *
    row(std::uint64_t set, std::uint8_t way)
    {
        return &_entries[(set * _depth + way) * _ways.size()];
    }

    std::vector<unsigned> _ways;
    std::uint64_t _sets;
    EntryCounterSpec _counters;
    /** Recency list length per set: the largest member's ways. */
    unsigned _depth = 0;
    unsigned _indexBits = 0;

    /** Per set, in depth order (most recent first): the tags and the
     *  ways holding them; _filled[set] of them are in use. */
    std::vector<std::uint64_t> _tags;
    std::vector<std::uint8_t> _wayAt;
    std::vector<std::uint8_t> _filled;
    /** Per set and way: members() entries. */
    std::vector<TableEntry> _entries;

    Key _memoKey{};
    std::uint64_t _memoSet = 0;
    std::uint64_t _memoTag = 0;
    unsigned _memoDepth = kNone;
    std::uint32_t _memoResident = 0;
};

} // namespace ibp

#endif // IBP_CORE_SET_STACK_HH
