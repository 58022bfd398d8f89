/**
 * @file
 * Several bounded fully-associative LRU tables of different sizes,
 * fed one access stream, held as ONE LRU stack (section 5.1's size
 * sweep, run in one pass).
 *
 * LRU has the inclusion property (Mattson et al., 1970): a key is
 * resident in an LRU table of size k exactly when its stack depth -
 * the number of distinct keys accessed since its own last access -
 * is below k. So one recency order, sized for the largest member,
 * answers every size at once. Each live key still carries one
 * TableEntry per member, because the members' entries differ: a
 * member the key fell out of lost its entry and starts over on the
 * next access.
 *
 * Recency is a doubly linked list over slots, most recent first. The
 * stack never computes a depth. Instead it keeps, per member, a
 * *boundary*: the member's least recent resident key once the member
 * is full. And each key keeps its *level*, the first member that
 * holds it, so probe() answers every member in O(1). Accessing a key
 * of level L moves it to the front: the boundary keys of members
 * 0..L-1 each fall one place, out of their member, and each of those
 * boundaries steps back one key, so an access costs O(L). A new key
 * demotes one key per full member, and once the largest member is
 * full it evicts the list's tail (that member's boundary).
 *
 * Counters are bit-identical to one FullyAssocTable per member: the
 * unit tests in tests/core pin every access against one table per
 * size, and the differential tests in tests/sim pin the lane engine's
 * stacks against solo simulate() runs on the reference tables.
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
        : _sizes(std::move(sizes)), _counters(counters),
          _boundary(_sizes.size(), kNil)
    {
        IBP_ASSERT(!_sizes.empty() && _sizes.front() >= 1,
                   "LRU stack needs members of >= 1 entry");
        IBP_ASSERT(_sizes.size() <= 255, "LRU stack of %zu members",
                   _sizes.size());
        for (std::size_t k = 1; k < _sizes.size(); ++k) {
            IBP_ASSERT(_sizes[k - 1] < _sizes[k],
                       "LRU stack sizes must ascend strictly");
        }
        IBP_ASSERT(_sizes.back() < kNil,
                   "LRU stack size %llu exceeds the slot space",
                   static_cast<unsigned long long>(_sizes.back()));
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
        _memoSlot = slot == nullptr ? kNil : *slot;
        if (_memoSlot == kNil) {
            resident = static_cast<std::uint32_t>(_sizes.size());
            return nullptr;
        }
        resident = _nodes[_memoSlot].level;
        return row(_memoSlot);
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
        std::uint32_t resident = 0;
        if (slot == kNil) {
            slot = insert(key);
            resident = static_cast<std::uint32_t>(_sizes.size());
        } else {
            resident = _nodes[slot].level;
            promote(slot);
        }
        TableEntry *entries = row(slot);
        for (std::uint32_t k = 0; k < resident; ++k)
            entries[k].resetFor(_counters.confidenceBits,
                                _counters.chosenBits);
        return entries;
    }

  private:
    static constexpr std::uint32_t kNil = 0xffffffffu;

    struct Node
    {
        Key key{};
        std::uint32_t prev = kNil; ///< the next more recent slot
        std::uint32_t next = kNil; ///< the next less recent slot
        std::uint8_t level = 0;    ///< the first member holding key
    };

    TableEntry *row(std::uint32_t slot)
    {
        return &_entries[static_cast<std::size_t>(slot) * _sizes.size()];
    }

    void
    unlink(std::uint32_t slot)
    {
        const Node &node = _nodes[slot];
        (node.prev != kNil ? _nodes[node.prev].next : _head) = node.next;
        (node.next != kNil ? _nodes[node.next].prev : _tail) = node.prev;
    }

    void
    linkFront(std::uint32_t slot)
    {
        Node &node = _nodes[slot];
        node.prev = kNil;
        node.next = _head;
        (_head != kNil ? _nodes[_head].prev : _tail) = slot;
        _head = slot;
        node.level = 0;
    }

    /** Member @p k's boundary key fell one place, out of the member:
     *  it now first lives in member k + 1, and the key just above it
     *  is the new boundary. */
    void
    demote(std::size_t k)
    {
        Node &fallen = _nodes[_boundary[k]];
        fallen.level = static_cast<std::uint8_t>(k + 1);
        _boundary[k] = fallen.prev;
    }

    /** Move the live key in @p slot to the front. */
    void
    promote(std::uint32_t slot)
    {
        if (slot == _head)
            return;
        const std::size_t level = _nodes[slot].level;
        // Only the key's own member can have it as its boundary; the
        // key above it takes that place.
        if (_boundary[level] == slot)
            _boundary[level] = _nodes[slot].prev;
        unlink(slot);
        linkFront(slot);
        for (std::size_t k = 0; k < level; ++k)
            demote(k);
    }

    /** A slot for a key outside the stack, at the front: the largest
     *  member's LRU victim when the stack is full, else a fresh one. */
    std::uint32_t
    insert(const Key &key)
    {
        ++_inserted;
        // Slots are never freed, so they count the live keys.
        const std::uint64_t before = _nodes.size();
        std::uint32_t slot;
        if (before == _sizes.back()) {
            slot = _tail;
            unlink(slot);
            _index.erase(_nodes[slot].key);
        } else {
            slot = static_cast<std::uint32_t>(_nodes.size());
            _nodes.emplace_back();
            _entries.resize(_entries.size() + _sizes.size());
        }
        _nodes[slot].key = key;
        bool inserted = false;
        _index.findOrInsert(key, inserted) = slot;
        linkFront(slot);
        const std::size_t last = _sizes.size() - 1;
        for (std::size_t k = 0; k <= last && before + 1 >= _sizes[k]; ++k) {
            if (before < _sizes[k])
                _boundary[k] = _tail; // the member just filled up
            else if (k == last)
                _boundary[k] = _tail; // past the evicted key
            else
                demote(k);
        }
        return slot;
    }

    std::vector<std::uint64_t> _sizes;
    EntryCounterSpec _counters;

    FlatMap<Key, std::uint32_t, KeyHash> _index;
    /** Per slot: the key, its recency links and level, and
     *  members() entries. */
    std::vector<Node> _nodes;
    std::vector<TableEntry> _entries;
    std::uint32_t _head = kNil; ///< most recent slot
    std::uint32_t _tail = kNil; ///< least recent slot
    /** Per member: its least recent resident slot once full, else
     *  kNil. */
    std::vector<std::uint32_t> _boundary;
    /** Keys ever inserted (new to the stack). */
    std::uint64_t _inserted = 0;

    Key _memoKey{};
    std::uint32_t _memoSlot = kNil;
};

} // namespace ibp

#endif // IBP_CORE_LRU_STACK_HH
