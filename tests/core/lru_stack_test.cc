/**
 * @file
 * Unit tests of LruStack (core/lru_stack.hh) against its definition:
 * one FullyAssocTable per member size fed the same accesses. On every
 * access the stack's resident boundary must say exactly which tables
 * hold the key, and every member's entry must equal that table's,
 * before and after training.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/fully_assoc_table.hh"
#include "core/lru_stack.hh"
#include "core/two_level.hh"
#include "util/rng.hh"

namespace ibp {
namespace {

/** An LruStack and one FullyAssocTable per member, stepped together. */
class StackAndTables
{
  public:
    explicit StackAndTables(const std::vector<std::uint64_t> &sizes)
        : _stack(sizes, EntryCounterSpec{})
    {
        for (const std::uint64_t size : sizes)
            _tables.emplace_back(size);
    }

    /**
     * Access @p key with resolved target @p target in the stack and in
     * every table, training each entry by the two-level rule. Returns
     * the stack's resident boundary, or -1 (with a test failure) at
     * the first disagreement.
     */
    int
    step(std::uint64_t key_bits, Addr target)
    {
        const Key key = makeExactKey(key_bits);
        const std::size_t members = _tables.size();
        std::uint32_t resident = 0;
        const TableEntry *row = _stack.probe(key, resident);
        for (std::size_t k = 0; k < members; ++k) {
            const TableEntry *entry = _tables[k].probe(key);
            if ((entry != nullptr) != (k >= resident)) {
                ADD_FAILURE() << "member " << k << " residency, key "
                              << key_bits << " resident " << resident;
                return -1;
            }
            if (entry != nullptr && !sameEntry(row[k], *entry, k, key_bits))
                return -1;
        }
        TableEntry *entries = _stack.access(key);
        for (std::size_t k = 0; k < members; ++k) {
            bool replaced = false;
            TableEntry &entry = _tables[k].access(key, replaced);
            if (replaced != (k < resident)) {
                ADD_FAILURE() << "member " << k << " replacement, key "
                              << key_bits;
                return -1;
            }
            trainTwoLevelEntry(entries[k], k < resident, target, true);
            trainTwoLevelEntry(entry, replaced, target, true);
            if (!sameEntry(entries[k], entry, k, key_bits))
                return -1;
        }
        for (std::size_t k = 0; k < members; ++k) {
            if (_stack.occupancy(k) != _tables[k].occupancy()) {
                ADD_FAILURE() << "member " << k << " occupancy";
                return -1;
            }
        }
        return static_cast<int>(resident);
    }

  private:
    static bool
    sameEntry(const TableEntry &stack, const TableEntry &table,
              std::size_t member, std::uint64_t key_bits)
    {
        const bool same =
            stack.valid == table.valid && stack.target == table.target &&
            stack.confidence.value() == table.confidence.value() &&
            stack.hysteresis.pendingMiss() == table.hysteresis.pendingMiss();
        if (!same) {
            ADD_FAILURE() << "member " << member << " entry, key "
                          << key_bits;
        }
        return same;
    }

    LruStack _stack;
    std::vector<FullyAssocTable> _tables;
};

/** Run @p accesses random accesses; keys are drawn below
 *  2^nextBelow(@p max_log2 + 1), so reuse distances span every
 *  scale up to the key space. Returns how many accesses hit each
 *  resident boundary (members() for a new key). */
std::vector<std::uint64_t>
runRandom(const std::vector<std::uint64_t> &sizes, unsigned max_log2,
          std::size_t accesses, std::uint64_t seed)
{
    StackAndTables both(sizes);
    Rng rng(seed);
    std::vector<std::uint64_t> levels(sizes.size() + 1, 0);
    for (std::size_t i = 0; i < accesses; ++i) {
        const std::uint64_t key =
            rng.nextBelow(std::uint64_t{1} << rng.nextBelow(max_log2 + 1));
        const Addr target = 0x1000 + 4 * rng.nextBelow(3);
        const int resident = both.step(key, target);
        if (resident < 0) {
            ADD_FAILURE() << "access " << i;
            break;
        }
        ++levels[static_cast<std::size_t>(resident)];
    }
    return levels;
}

TEST(LruStack, SmallSizesMatchOneTablePerSizeOnEveryAccess)
{
    // 32 keys against at most 8 entries: most accesses evict.
    const auto levels = runRandom({1, 2, 3, 5, 8}, 5, 20000, 11);
    for (std::size_t level = 0; level < levels.size(); ++level)
        EXPECT_GT(levels[level], 100u) << "level " << level;
}

TEST(LruStack, SweepSizesMatchOneTablePerSizeOnEveryAccess)
{
    std::vector<std::uint64_t> sizes;
    for (std::uint64_t size = 64; size <= 32768; size *= 2)
        sizes.push_back(size);
    // Up to 2^16 keys, so the 32K member evicts too.
    const auto levels = runRandom(sizes, 16, 150000, 12);
    for (std::size_t level = 0; level < levels.size(); ++level)
        EXPECT_GT(levels[level], 50u) << "level " << level;
}

TEST(LruStack, OneMemberStackIsOneTable)
{
    const auto levels = runRandom({4}, 3, 5000, 13);
    EXPECT_GT(levels[0], 500u);
    EXPECT_GT(levels[1], 500u);
}

TEST(LruStack, BoundaryKeysAreEvictedAndPromoted)
{
    StackAndTables both({2, 3});
    const Addr t = 0x40;
    // Recency c, b, a: member 0 holds {c, b}, b on its boundary;
    // member 1 holds all three, a on its boundary.
    EXPECT_EQ(both.step('a', t), 2);
    EXPECT_EQ(both.step('b', t), 2);
    EXPECT_EQ(both.step('c', t), 2);
    // d evicts a, the largest member's boundary key, and pushes b out
    // of member 0: recency d, c, b.
    EXPECT_EQ(both.step('d', t), 2);
    EXPECT_EQ(both.step('a', t), 2); // a was gone; b is evicted now
    // Recency a, d, c: c sits on member 1's boundary. Accessing it
    // steps that boundary back to d and pushes d out of member 0.
    EXPECT_EQ(both.step('c', t), 1);
    EXPECT_EQ(both.step('d', t), 1);
    EXPECT_EQ(both.step('a', t), 1);
    // Recency a, d, c: d sits on member 0's boundary.
    EXPECT_EQ(both.step('d', t), 0);
    EXPECT_EQ(both.step('d', t), 0); // the most recent key stays put
    EXPECT_EQ(both.step('b', t), 2);
    EXPECT_EQ(both.step('c', t), 2);
}

TEST(LruStack, SizeOneMembersStepTheirBoundaryToTheFront)
{
    StackAndTables both({1, 2});
    const Addr t = 0x80;
    EXPECT_EQ(both.step(1, t), 2);
    EXPECT_EQ(both.step(2, t), 2);
    EXPECT_EQ(both.step(1, t), 1);
    EXPECT_EQ(both.step(1, t), 0);
    EXPECT_EQ(both.step(2, t), 1);
    EXPECT_EQ(both.step(3, t), 2);
    EXPECT_EQ(both.step(1, t), 2);
    EXPECT_EQ(both.step(3, t), 1);
}

} // namespace
} // namespace ibp
