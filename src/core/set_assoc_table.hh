/**
 * @file
 * Set-associative table with tags and per-set LRU (section 5.2).
 *
 * The low log2(sets) bits of the key select a set; the remaining key
 * bits are stored as the tag. Conflict misses arise when more live
 * patterns index into a set than it has ways. One-way associativity
 * is a direct-mapped tagged table.
 *
 * Alongside the full 64-bit tags the table keeps a one-byte tag
 * digest per way (0 = never-allocated, else 0x80 | 7 hash bits of
 * the tag) in a contiguous side array, FlatMap-style: a probe scans
 * the byte array and only dereferences a 32-byte Way on a digest
 * match, which rejects almost every non-matching way with one cache
 * line per set. Behaviour is identical to the digest-free
 * ReferenceSetAssocTable (core/reference_tables.hh) — the full tag
 * and the valid bit are still what decide a hit.
 */

#ifndef IBP_CORE_SET_ASSOC_TABLE_HH
#define IBP_CORE_SET_ASSOC_TABLE_HH

#include <cstdint>
#include <vector>

#include "core/simd.hh"
#include "core/table.hh"
#include "util/logging.hh"

namespace ibp {

class SetAssocTable final : public TargetTable
{
  public:
    /**
     * @param entries total entry count (power of two);
     * @param ways    associativity (divides entries).
     */
    SetAssocTable(std::uint64_t entries, unsigned ways,
                  EntryCounterSpec counters = {});

    // probe/access/prefetch are defined inline below: the lane
    // engine (sim/simulator.cc) calls them devirtualized in its
    // hottest loops, where inlining lets the compiler overlap the
    // set scans of a dozen independent tables.
    const TableEntry *probe(const Key &key) const override;
    TableEntry &access(const Key &key, bool &replaced) override;
    void prefetch(const Key &key) const override;

    std::uint64_t occupancy() const override;
    std::uint64_t capacity() const override { return _ways * _sets; }
    void reset() override;
    std::string name() const override;

    unsigned ways() const { return _ways; }
    std::uint64_t sets() const { return _sets; }

    /** Set index / tag split, exposed for tests. */
    std::uint64_t indexOf(const Key &key) const;
    std::uint64_t tagOf(const Key &key) const;

    /** The same split for a table of 2^@p indexBits sets: it depends
     *  on the set count alone, so tables of equal set count agree on
     *  every key's set and tag (what core/set_stack.hh relies on). */
    static std::uint64_t indexOf(const Key &key, unsigned indexBits);
    static std::uint64_t tagOf(const Key &key, unsigned indexBits);

  private:
    struct Way
    {
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
        TableEntry entry;
    };

    static std::uint8_t digestOf(std::uint64_t tag);

    unsigned _ways;
    std::uint64_t _sets;
    unsigned _indexBits;
    EntryCounterSpec _counters;
    std::vector<Way> _storage; // _sets * _ways, set-major
    /** One-byte tag digest per way, same set-major layout. */
    std::vector<std::uint8_t> _digests;
    std::uint64_t _clock = 0;

    /**
     * Probe-to-access fusion: the simulation protocol is always
     * probe(key) in predict() followed by access(key) in update(),
     * so a probe hit remembers which way it found and the next
     * access consumes the memo instead of rescanning the set. The
     * memo is one-shot (cleared by any access) and revalidated
     * against the live way (valid + tag match) before use, so a
     * stale memo can only fall back to the scan, never misroute.
     * mutable because probe() is const; behaviour-neutral cache.
     */
    mutable bool _memoArmed = false;
    mutable std::uint32_t _memoWay = 0;
    mutable std::uint64_t _memoSet = 0;
    mutable std::uint64_t _memoTag = 0;
};

inline std::uint64_t
SetAssocTable::indexOf(const Key &key, unsigned indexBits)
{
    return key.lo & lowMask(indexBits);
}

inline std::uint64_t
SetAssocTable::tagOf(const Key &key, unsigned indexBits)
{
    // Everything above the index bits participates in the tag. The
    // 128-bit hashed keys of unconstrained predictors fold their high
    // half in so full-precision patterns can also run on small tables.
    return (key.lo >> indexBits) ^ (key.hi * 0x9e3779b97f4a7c15ULL);
}

inline std::uint64_t
SetAssocTable::indexOf(const Key &key) const
{
    return indexOf(key, _indexBits);
}

inline std::uint64_t
SetAssocTable::tagOf(const Key &key) const
{
    return tagOf(key, _indexBits);
}

inline std::uint8_t
SetAssocTable::digestOf(std::uint64_t tag)
{
    // Seven well-mixed tag bits; the high bit distinguishes every
    // allocated way from the never-allocated zero digest.
    return static_cast<std::uint8_t>(0x80u | (mix64(tag) >> 57));
}

inline void
SetAssocTable::prefetch(const Key &key) const
{
    // One set spans one digest byte run plus up to two cache lines
    // of Way records (32 bytes each); touch the digest line and both
    // ends of the way span so the following probe scan never stalls.
    const std::uint64_t set = indexOf(key);
    IBP_PREFETCH(&_digests[set * _ways]);
    IBP_PREFETCH(&_storage[set * _ways]);
    IBP_PREFETCH(&_storage[set * _ways + (_ways - 1)]);
}

inline const TableEntry *
SetAssocTable::probe(const Key &key) const
{
    const std::uint64_t set = indexOf(key);
    const std::uint64_t tag = tagOf(key);
    const std::uint8_t digest = digestOf(tag);
    const Way *base = &_storage[set * _ways];
    const std::uint8_t *digests = &_digests[set * _ways];
    for (unsigned w = 0; w < _ways; ++w) {
        // Digest-first: a mismatching way is rejected on one byte
        // without loading its Way record at all.
        if (digests[w] != digest)
            continue;
        const Way &way = base[w];
        if (way.entry.valid && way.tag == tag) {
            _memoArmed = true;
            _memoWay = w;
            _memoSet = set;
            _memoTag = tag;
            return &way.entry;
        }
    }
    _memoArmed = false;
    return nullptr;
}

inline TableEntry &
SetAssocTable::access(const Key &key, bool &replaced)
{
    const std::uint64_t set = indexOf(key);
    const std::uint64_t tag = tagOf(key);
    const std::uint8_t digest = digestOf(tag);
    Way *base = &_storage[set * _ways];
    std::uint8_t *digests = &_digests[set * _ways];

    // Fused fast path: the preceding probe() hit and remembered the
    // way; revalidate it (the memo could be stale if an access to
    // this set intervened) and skip the scan. Same clock bump, same
    // lastUse write as the scan's hit path - bit-identical LRU.
    if (_memoArmed) {
        _memoArmed = false;
        if (_memoSet == set && _memoTag == tag) {
            Way &way = _storage[set * _ways + _memoWay];
            if (way.entry.valid && way.tag == tag) {
                ++_clock;
                way.lastUse = _clock;
                replaced = false;
                return way.entry;
            }
        }
    }
    ++_clock;

    Way *victim = &base[0];
    unsigned victim_way = 0;
    for (unsigned w = 0; w < _ways; ++w) {
        Way &way = base[w];
        if (digests[w] == digest && way.entry.valid &&
            way.tag == tag) {
            way.lastUse = _clock;
            replaced = false;
            return way.entry;
        }
        // Prefer an invalid way; otherwise the least recently used.
        if (!way.entry.valid) {
            if (victim->entry.valid || way.lastUse < victim->lastUse) {
                victim = &way;
                victim_way = w;
            }
        } else if (victim->entry.valid &&
                   way.lastUse < victim->lastUse) {
            victim = &way;
            victim_way = w;
        }
    }

    victim->tag = tag;
    victim->lastUse = _clock;
    victim->entry.resetFor(_counters.confidenceBits,
                           _counters.chosenBits);
    digests[victim_way] = digest;
    replaced = true;
    return victim->entry;
}

} // namespace ibp

#endif // IBP_CORE_SET_ASSOC_TABLE_HH
