/**
 * @file
 * Tagless (direct-mapped, untagged) table (section 5.2).
 *
 * The low log2(entries) key bits select a slot; there is no tag, so
 * a lookup simply returns whatever target the slot holds. Distinct
 * patterns mapping to the same slot interfere - usually negatively,
 * but section 5.2.2 shows *positive* interference for long path
 * lengths: many patterns share a target, so an aliased slot is still
 * a better-than-random prediction where a tagged table would declare
 * a miss. Hardware-wise this is the cheapest organisation (no tags,
 * no comparators).
 */

#ifndef IBP_CORE_TAGLESS_TABLE_HH
#define IBP_CORE_TAGLESS_TABLE_HH

#include <vector>

#include "core/simd.hh"
#include "core/table.hh"
#include "util/logging.hh"

namespace ibp {

class TaglessTable final : public TargetTable
{
  public:
    explicit TaglessTable(std::uint64_t entries,
                          EntryCounterSpec counters = {})
        : _counters(counters), _storage(entries)
    {
        IBP_ASSERT(entries >= 1 && isPowerOfTwo(entries),
                   "tagless table size %llu not a power of two",
                   static_cast<unsigned long long>(entries));
        _indexBits = floorLog2(entries);
    }

    std::uint64_t
    indexOf(const Key &key) const
    {
        return key.lo & lowMask(_indexBits);
    }

    const TableEntry *
    probe(const Key &key) const override
    {
        const TableEntry &entry = _storage[indexOf(key)];
        return entry.valid ? &entry : nullptr;
    }

    void
    prefetch(const Key &key) const override
    {
        IBP_PREFETCH(&_storage[indexOf(key)]);
    }

    TableEntry &
    access(const Key &key, bool &replaced) override
    {
        TableEntry &entry = _storage[indexOf(key)];
        // Without tags, slot reuse by a different pattern is
        // invisible; only a cold slot counts as a replacement.
        replaced = !entry.valid;
        if (replaced) {
            entry.resetFor(_counters.confidenceBits,
                           _counters.chosenBits);
        }
        return entry;
    }

    std::uint64_t
    occupancy() const override
    {
        std::uint64_t count = 0;
        for (const auto &entry : _storage)
            count += entry.valid ? 1 : 0;
        return count;
    }

    std::uint64_t capacity() const override { return _storage.size(); }

    void
    reset() override
    {
        for (auto &entry : _storage)
            entry = TableEntry{};
    }

    std::string name() const override { return "tagless"; }

  private:
    EntryCounterSpec _counters;
    unsigned _indexBits;
    std::vector<TableEntry> _storage;
};

} // namespace ibp

#endif // IBP_CORE_TAGLESS_TABLE_HH
