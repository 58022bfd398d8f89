/**
 * @file
 * Several bounded fully-associative LRU tables of different sizes,
 * fed one access stream, held as ONE LRU stack (section 5.1's size
 * sweep, run in one pass).
 *
 * LRU has the inclusion property (Mattson et al., 1970): a key is
 * resident in an LRU table of size k exactly when its stack depth -
 * the number of distinct keys accessed since its own last access -
 * is below k. So one depth computation per access answers every size
 * at once, and the stack needs only one index and one recency order,
 * sized for the largest member. Each live key still carries one
 * TableEntry per member, because the members' entries differ: a
 * member the key fell out of lost its entry and starts over on the
 * next access.
 *
 * Recency is a stamp per key from a counter that every access
 * advances. A Fenwick tree over the stamp window counts the live
 * stamps, so a key's depth is the number of live stamps above its
 * own: live - prefix(stamp). When the window (2 * largest + 2
 * stamps) runs out, the live stamps are renumbered in order, so the
 * memory is O(largest size x members) whatever the trace length, and
 * the renumbering is amortised O(1) per access. The oldest live
 * stamp - the largest member's LRU victim - is found by a cursor
 * that only moves forward within a window.
 *
 * Counters are bit-identical to one FullyAssocTable per member: the
 * differential tests in tests/sim pin the lane engine's stacks
 * against solo simulate() runs on the reference tables.
 */

#ifndef IBP_CORE_LRU_STACK_HH
#define IBP_CORE_LRU_STACK_HH

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/flat_table.hh"
#include "core/table.hh"
#include "util/logging.hh"

namespace ibp {

class LruStack
{
  public:
    /** @p sizes: the member tables' entry counts, strictly
     *  ascending, each >= 1. */
    LruStack(std::vector<std::uint64_t> sizes, EntryCounterSpec counters)
        : _sizes(std::move(sizes)), _counters(counters)
    {
        IBP_ASSERT(!_sizes.empty() && _sizes.front() >= 1,
                   "LRU stack needs members of >= 1 entry");
        for (std::size_t k = 1; k < _sizes.size(); ++k) {
            IBP_ASSERT(_sizes[k - 1] < _sizes[k],
                       "LRU stack sizes must ascend strictly");
        }
        IBP_ASSERT(_sizes.back() < (1ull << 30),
                   "LRU stack size %llu exceeds the stamp space",
                   static_cast<unsigned long long>(_sizes.back()));
        _window = static_cast<std::uint32_t>(2 * _sizes.back() + 2);
        _stampSlot.assign(_window, kNil);
        _tree.assign(_window + 1, 0);
    }

    std::size_t members() const { return _sizes.size(); }
    std::uint64_t capacity(std::size_t member) const { return _sizes[member]; }

    /** Valid entries of @p member's table: every insertion fills
     *  one until the table is full, and no table is larger than the
     *  stack, so the stack's insertion count bounds them all. */
    std::uint64_t
    occupancy(std::size_t member) const
    {
        return std::min(_sizes[member], _inserted);
    }

    /**
     * Read-only lookup; recency does not move. Returns the key's
     * row of member entries (members() of them, ascending size), or
     * nullptr when no member holds the key, and sets @p resident to
     * the first member that holds it: members [resident, members())
     * do, the smaller ones do not (resident == members() for a key
     * outside the stack). The lookup is remembered for access().
     */
    const TableEntry *
    probe(const Key &key, std::uint32_t &resident)
    {
        const std::uint32_t *slot = _index.find(key);
        _memoKey = key;
        if (slot == nullptr) {
            _memoSlot = kNil;
            _memoResident = static_cast<std::uint32_t>(_sizes.size());
        } else {
            _memoSlot = *slot;
            const std::uint64_t depth = depthOf(_stamps[*slot]);
            std::uint32_t k = 0;
            while (_sizes[k] <= depth)
                ++k; // depth < live <= the largest size
            _memoResident = k;
        }
        resident = _memoResident;
        return _memoSlot == kNil ? nullptr : row(_memoSlot);
    }

    /**
     * Find or allocate @p key and make it the most recent. Members
     * below the resident boundary probe() reported for the key (all
     * of them for a new key) get their entry reset and must train it
     * as replaced. probe(@p key) must be the stack's last probe.
     */
    TableEntry *
    access(const Key &key)
    {
        IBP_ASSERT(_memoKey == key, "LRU stack access without probe");
        std::uint32_t slot = _memoSlot;
        if (slot == kNil) {
            slot = allocate(key);
        } else if (_stamps[slot] + 1 != _next) {
            // (The most recent key keeps its stamp.)
            retire(_stamps[slot]);
            stamp(slot);
        }
        TableEntry *entries = row(slot);
        for (std::uint32_t k = 0; k < _memoResident; ++k)
            entries[k].resetFor(_counters.confidenceBits,
                                _counters.chosenBits);
        return entries;
    }

  private:
    static constexpr std::uint32_t kNil = 0xffffffffu;

    static std::uint32_t lowBit(std::uint32_t i) { return i & (~i + 1); }

    TableEntry *row(std::uint32_t slot)
    {
        return &_entries[static_cast<std::size_t>(slot) * _sizes.size()];
    }

    std::uint64_t
    depthOf(std::uint32_t stamp) const
    {
        std::uint32_t older = 0; // live stamps <= stamp
        for (std::uint32_t i = stamp + 1; i > 0; i -= lowBit(i))
            older += _tree[i];
        return _keys.size() - older;
    }

    void
    count(std::uint32_t stamp, std::int32_t delta)
    {
        for (std::uint32_t i = stamp + 1; i <= _window; i += lowBit(i))
            _tree[i] += static_cast<std::uint32_t>(delta);
    }

    void
    retire(std::uint32_t stamp)
    {
        count(stamp, -1);
        _stampSlot[stamp] = kNil;
    }

    /** Give @p slot the next stamp, renumbering first if the window
     *  is used up. */
    void
    stamp(std::uint32_t slot)
    {
        if (_next == _window)
            compact();
        _stamps[slot] = _next;
        _stampSlot[_next] = slot;
        count(_next, 1);
        ++_next;
    }

    /** A slot for a key outside the stack: the largest member's LRU
     *  victim when the stack is full, else a fresh one. */
    std::uint32_t
    allocate(const Key &key)
    {
        ++_inserted;
        std::uint32_t slot;
        if (_keys.size() == _sizes.back()) {
            while (_stampSlot[_oldest] == kNil)
                ++_oldest;
            slot = _stampSlot[_oldest];
            retire(_oldest);
            _index.erase(_keys[slot]);
            _keys[slot] = key;
        } else {
            slot = static_cast<std::uint32_t>(_keys.size());
            _keys.push_back(key);
            _stamps.push_back(0);
            _entries.resize(_entries.size() + _sizes.size());
        }
        bool inserted = false;
        _index.findOrInsert(key, inserted) = slot;
        stamp(slot);
        return slot;
    }

    /** Renumber the live stamps 0..live-1 in recency order and
     *  rebuild the tree over them. */
    void
    compact()
    {
        std::uint32_t live = 0;
        for (std::uint32_t t = 0; t < _window; ++t) {
            const std::uint32_t slot = _stampSlot[t];
            if (slot == kNil)
                continue;
            _stampSlot[t] = kNil;
            _stampSlot[live] = slot;
            _stamps[slot] = live++;
        }
        // Tree node i counts stamps [i - lowBit(i), i - 1].
        for (std::uint32_t i = 1; i <= _window; ++i) {
            const std::uint32_t low = i - lowBit(i);
            const std::uint32_t high = std::min(i, live);
            _tree[i] = high > low ? high - low : 0;
        }
        _next = live;
        _oldest = 0;
    }

    std::vector<std::uint64_t> _sizes;
    EntryCounterSpec _counters;
    std::uint32_t _window = 0;

    FlatMap<Key, std::uint32_t, KeyHash> _index;
    /** Per slot: the key, its stamp, and members() entries. */
    std::vector<Key> _keys;
    std::vector<std::uint32_t> _stamps;
    std::vector<TableEntry> _entries;

    /** Per stamp in the window: the slot holding it, or kNil. */
    std::vector<std::uint32_t> _stampSlot;
    /** Fenwick tree (1-based) of live stamps over the window. */
    std::vector<std::uint32_t> _tree;
    std::uint32_t _next = 0;
    /** No live stamp is below this one. */
    std::uint32_t _oldest = 0;
    /** Keys ever inserted (new to the stack). */
    std::uint64_t _inserted = 0;

    Key _memoKey{};
    std::uint32_t _memoSlot = kNil;
    std::uint32_t _memoResident = 0;
};

} // namespace ibp

#endif // IBP_CORE_LRU_STACK_HH
