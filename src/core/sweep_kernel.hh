/**
 * @file
 * Fused sweep kernels: shared first-level history and key assembly
 * for a group of two-level predictors simulated in one pass.
 *
 * Every figure in the paper is a sweep whose columns differ in one
 * resource parameter (table size, associativity, the second path
 * length of a hybrid) but share the history specification: the same
 * sharing mode s, the same element kind, the same conditional-target
 * flag. Run one by one, each of those columns maintains its own
 * HistoryRegister and rebuilds its own pattern key per branch -
 * identical work, repeated per column.
 *
 * A SweepKernel hoists that shared work out of the column loop:
 *
 *  - predictors joining the kernel (tryJoin(): a two-level predictor
 *    or a hybrid of two-level components) bind one key recipe per
 *    member TwoLevelConfig. The kernel records each joined column's
 *    members and their variants (column()); the predictor objects
 *    themselves carry no kernel state, so a joined predictor still
 *    runs unchanged under simulate();
 *  - members are grouped by history *signature* (s, element kind,
 *    conditional flag); each group keeps ONE HistoryRegister at the
 *    deepest path length any member needs - HistoryBuffer::at(i) is
 *    depth-independent for i < p, so a deeper buffer serves every
 *    shorter path bit-identically;
 *  - within a group, members with the same full PatternSpec share
 *    one key *variant*, so the 13 columns of a fig17 row that share
 *    path length p1 build that component's key once per branch, not
 *    13 times. The variants are the lane engine's key slots;
 *  - bit-select variants additionally share the *compressed targets*:
 *    the group caches bitsRange(target, a, bMax) per branch once,
 *    and each variant derives its own pattern by pushing those
 *    through its precomputed scatter masks (scatterBits consumes
 *    exactly popcount(mask) low bits, so the width-bMax compression
 *    serves every smaller b implicitly). Fold/shift-xor/full
 *    -precision variants fall back to their own buildKey() over the
 *    shared buffer - still bit-identical.
 *  - members whose *entire* TwoLevelConfig is equal go further: they
 *    are identical state machines fed the identical record stream.
 *    The kernel does not track them; the lane engine's plan
 *    (sim/simulator.cc) folds them onto one table per distinct
 *    configuration.
 *
 * The lane engine drives the kernel per indirect record: laneKeys()
 * resolves every variant's key from the pre-push histories, then
 * commit(pc, target) performs the history pushes once for every
 * group. A solo predictor builds its key from the pre-push history
 * too (update() reuses the key predict() cached, then pushes), so
 * the order is observationally identical - the differential tests in
 * tests/sim pin every SimResult counter bit-for-bit.
 *
 * Lifetime: join, finalize() once, then drive. The kernel holds
 * pointers to the joined predictors, so they must outlive its use
 * (SuiteRunner scopes both to one fused chunk). Not thread-safe; one
 * kernel per traversal.
 */

#ifndef IBP_CORE_SWEEP_KERNEL_HH
#define IBP_CORE_SWEEP_KERNEL_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/history_register.hh"
#include "core/key.hh"
#include "core/pattern.hh"
#include "core/predictor.hh"

namespace ibp {

class HybridPredictor;
class SweepHistoryGroup;
class TwoLevelPredictor;
struct TwoLevelConfig;

/** What makes two columns' first-level histories interchangeable. */
struct SweepGroupSignature
{
    /** History-pattern sharing s in [2, 32] (32 = global). */
    unsigned sharingBits = 32;
    /** HistoryElement::TargetAndAddress (two pushes per branch). */
    bool targetAndAddress = false;
    /** Taken conditional targets enter the history (section 3.3). */
    bool includeConditionalTargets = false;

    bool
    operator==(const SweepGroupSignature &other) const
    {
        return sharingBits == other.sharingBits &&
               targetAndAddress == other.targetAndAddress &&
               includeConditionalTargets ==
                   other.includeConditionalTargets;
    }
};

/**
 * One deduplicated key recipe within a group: every member whose
 * PatternSpec is identical shares this builder. laneKey() is valid
 * only after SweepKernel::finalize().
 */
class SweepKeyVariant
{
  public:
    SweepKeyVariant(const PatternSpec &spec, SweepHistoryGroup &group)
        : _builder(spec), _group(&group)
    {
    }

    const PatternSpec &spec() const { return _builder.spec(); }

    /** The key this recipe produces for @p pc under the group's
     *  current history. The lane engine resolves each variant once
     *  per record; incremental variants reduce to the inline address
     *  mix. Defined after SweepHistoryGroup. */
    Key laneKey(Addr pc);

  private:
    friend class SweepKernel;
    friend class SweepHistoryGroup;

    /** Fold one pushed history element into the running pattern
     *  (incremental variants only; see _incremental). */
    void
    step(Addr element)
    {
        _pattern = _builder.advancePattern(_pattern, element);
    }

    PatternBuilder _builder;
    /** The group whose shared history this recipe reads. */
    SweepHistoryGroup *_group;
    /** Derive the pattern from the group's shared compressed-target
     *  cache instead of re-compressing per variant (set by
     *  finalize(); requires flat bit-select with the group's a). */
    bool _fast = false;

    /**
     * Incremental mode (set by finalize()): the group's history is
     * global, so every branch reads the same pattern and each push
     * advances it by one uniform shift
     * (PatternBuilder::advancePattern). The group calls step() once
     * per pushed element and laneKey() collapses to mixing _pattern
     * with the branch address - no per-branch history walk at all.
     */
    bool _incremental = false;
    std::uint64_t _pattern = 0;
};

/** One shared first-level history and its key variants. */
class SweepHistoryGroup
{
  public:
    explicit SweepHistoryGroup(const SweepGroupSignature &signature)
        : _signature(signature)
    {
    }

    /** The shared buffer branch @p pc consults (post-finalize). */
    const HistoryBuffer &
    buffer(Addr pc)
    {
        return _history->buffer(pc);
    }

    /**
     * Compressed targets of @p pc's history set at the group's
     * shared (a, bMax) bit-select, newest first, cacheDepth entries;
     * recomputed at most once per (version, set).
     */
    const std::uint64_t *compressedFor(Addr pc);

  private:
    friend class SweepKernel;

    /** One resolved element enters @p pc's history: push it into the
     *  shared buffer and advance the incremental patterns. */
    void
    pushElement(Addr pc, Addr element)
    {
        _history->push(pc, element);
        for (SweepKeyVariant *variant : _incremental)
            variant->step(element);
    }

    SweepGroupSignature _signature;
    unsigned _maxDepth = 0;
    /** Bumped once per committed branch; keys the compressed-target
     *  cache. */
    std::uint64_t _version = 1;
    std::unique_ptr<HistoryRegister> _history;
    /** This group's variants (the kernel owns them). */
    std::vector<SweepKeyVariant *> _variants;
    /** The subset of _variants in incremental mode (global-history
     *  groups only; filled by finalize()). */
    std::vector<SweepKeyVariant *> _incremental;

    // Shared compressed-target cache (see compressedFor).
    bool _cacheEnabled = false;
    unsigned _cacheLowBit = 0;
    unsigned _cacheBits = 0;
    unsigned _cacheDepth = 0;
    std::vector<std::uint64_t> _compressed;
    std::uint64_t _cacheVersion = 0;
    std::uint32_t _cacheSet = 0;
    bool _cacheValid = false;
};

class SweepKernel
{
  public:
    /** One two-level member of a joined predictor. */
    struct Member
    {
        /** The member's predictor: the joined two-level predictor
         *  itself, or one hybrid component. */
        TwoLevelPredictor *machine = nullptr;
        /** Index of the member's key variant in laneKeys() order
         *  (its lane key slot). */
        std::uint32_t variant = 0;
    };

    /** A predictor that joined: the lane engine runs it as a column
     *  over its members' tables. */
    struct Column
    {
        /** The joined predictor when it is a hybrid, else nullptr. */
        HybridPredictor *hybrid = nullptr;
        /** A plain column's one member; a hybrid's components in
         *  tie-break order. */
        std::vector<Member> members;
    };

    SweepKernel() = default;
    SweepKernel(const SweepKernel &) = delete;
    SweepKernel &operator=(const SweepKernel &) = delete;

    /**
     * Offer @p predictor to the kernel. A two-level predictor, or a
     * hybrid of two-level components, joins: each member's
     * TwoLevelConfig binds one key variant under its history
     * signature, and the predictor becomes a lane column (column()).
     * Every other family declines and runs on its own in the same
     * traversal. The predictor itself is not changed. Call before
     * finalize().
     */
    bool tryJoin(IndirectPredictor &predictor);

    /**
     * Build the shared history registers and resolve the fast-path
     * eligibility of every variant. Must be called exactly once,
     * after all joins and before the traversal.
     */
    void finalize();

    /** @p predictor's column when it joined, else nullptr. */
    const Column *
    column(const IndirectPredictor &predictor) const
    {
        const auto it = _columns.find(&predictor);
        return it == _columns.end() ? nullptr : &it->second;
    }

    /** Every variant's key for @p pc under the current histories:
     *  variant v's goes to keys[v * stride]. */
    void
    laneKeys(Addr pc, Key *keys, std::size_t stride)
    {
        for (std::size_t v = 0; v < _variants.size(); ++v)
            keys[v * stride] = _variants[v]->laneKey(pc);
    }

    /** An indirect branch resolved: push into every group. */
    void
    commit(Addr pc, Addr target)
    {
        for (const auto &group : _groups) {
            if (group->_signature.targetAndAddress)
                group->pushElement(pc, pc);
            group->pushElement(pc, target);
            ++group->_version;
        }
    }

    /** A conditional branch executed: push into 3.3 groups. */
    void
    observeConditional(Addr pc, bool taken, Addr target)
    {
        if (!taken)
            return;
        for (const auto &group : _groups) {
            if (!group->_signature.includeConditionalTargets)
                continue;
            if (group->_signature.targetAndAddress)
                group->pushElement(pc, pc);
            group->pushElement(pc, target);
            ++group->_version;
        }
    }

    /** True when any group folds taken conditional targets into its
     *  shared history (section 3.3 columns): the traversal must then
     *  feed conditional records to observeConditional() even if no
     *  generic column consumes them. */
    bool
    hasConditionalGroups() const
    {
        for (const auto &group : _groups) {
            if (group->_signature.includeConditionalTargets)
                return true;
        }
        return false;
    }

    /** Top-level predictors that joined / declined (telemetry). */
    unsigned joinedPredictors() const { return _joined; }
    unsigned declinedPredictors() const { return _declined; }

    std::size_t groupCount() const { return _groups.size(); }
    std::size_t variantCount() const { return _variants.size(); }

  private:
    /** The index of @p config's key variant, made on first use:
     *  members with equal history signatures share a group, and
     *  equal PatternSpecs within it share the variant. */
    std::uint32_t bind(const TwoLevelConfig &config);

    std::vector<std::unique_ptr<SweepHistoryGroup>> _groups;
    /** Every group's variants, in lane key slot order. */
    std::vector<std::unique_ptr<SweepKeyVariant>> _variants;
    std::unordered_map<const IndirectPredictor *, Column> _columns;
    bool _finalized = false;
    unsigned _joined = 0;
    unsigned _declined = 0;
};

inline Key
SweepKeyVariant::laneKey(Addr pc)
{
    if (_incremental)
        return _builder.keyFromPattern(pc, _pattern);
    if (_fast) {
        return _builder.keyFromPattern(
            pc, _builder.assembleFromCompressed(_group->compressedFor(pc)));
    }
    // Fold/shift-xor/full-precision/reference-mode recipes keep their
    // own assembly, but over the *shared* buffer.
    return _builder.buildKey(pc, _group->buffer(pc));
}

} // namespace ibp

#endif // IBP_CORE_SWEEP_KERNEL_HH
