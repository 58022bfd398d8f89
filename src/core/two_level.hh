/**
 * @file
 * The paper's central contribution: a two-level indirect branch
 * predictor with a path-based (target-address) first-level history.
 *
 * The first level keeps the last p indirect-branch targets per
 * history set (sharing parameter s, section 3.2.1). The second level
 * is a target table addressed by a key formed from the compressed
 * history pattern and the branch address (sections 3.2.2, 4 and 5;
 * see pattern.hh). Updates follow the two-bit-counter rule unless
 * disabled.
 *
 * Two rejected section 3.3 variants are available behind flags so
 * the negative results can be reproduced: including the *branch
 * address* alongside each target in the history, and including the
 * targets of taken conditional branches in the history.
 */

#ifndef IBP_CORE_TWO_LEVEL_HH
#define IBP_CORE_TWO_LEVEL_HH

#include <memory>
#include <string>

#include "core/history_register.hh"
#include "core/outcome.hh"
#include "core/pattern.hh"
#include "core/predictor.hh"
#include "core/table_spec.hh"

namespace ibp {

/** What gets shifted into the history per executed indirect branch. */
enum class HistoryElement
{
    /** The resolved target only (the paper's choice). */
    TargetOnly,
    /** Branch address then target, as two elements (rejected 3.3). */
    TargetAndAddress,
};

/** Full configuration of a two-level predictor. */
struct TwoLevelConfig
{
    /** Key formation recipe (p, b, compressor, interleave, mix, h). */
    PatternSpec pattern;

    /** History-pattern sharing s in [2, 32]; 32 = global (paper). */
    unsigned historySharing = 32;

    /** Second-level table organisation. */
    TableSpec table;

    /** Apply the 2-bit-counter target-update rule (section 3.1). */
    bool hysteresis = true;

    /** Shift taken conditional-branch targets into the history. */
    bool includeConditionalTargets = false;

    HistoryElement historyElement = HistoryElement::TargetOnly;

    /** Width of the per-entry metaprediction confidence counter. */
    unsigned confidenceBits = 2;

    void validate() const;
    std::string describe() const;

    /** Counter widths of the second-level table's entries. */
    EntryCounterSpec
    entryCounters() const
    {
        return EntryCounterSpec{confidenceBits, 2};
    }

    /**
     * Exact configuration equality. Two predictors with equal
     * configurations are identical state machines: fed the same
     * branch stream they hold the same tables, histories and
     * counters forever (the property the lane engine's machine
     * folding exploits, see sim/simulator.cc).
     */
    bool operator==(const TwoLevelConfig &other) const = default;
};

/**
 * True when @p a and @p b are equal in everything but their table,
 * and both tables are either fully associative or set-associative
 * with equal set counts (entries / ways): identical state machines
 * apart from capacity, so LRU inclusion lets one structure run them
 * all - an LruStack (core/lru_stack.hh) for fully-associative mates,
 * a SetStack (core/set_stack.hh) for set-associative ones. The one
 * rule both the batch planner (planChunks) and the lane plan
 * (sim/simulator.cc) group stack-mates by.
 */
inline bool
stackMates(const TwoLevelConfig &a, const TwoLevelConfig &b)
{
    const TableSpec &x = a.table;
    const TableSpec &y = b.table;
    if (x.kind != y.kind)
        return false;
    if (x.kind == TableKind::SetAssoc) {
        if (x.entries / x.ways != y.entries / y.ways)
            return false;
    } else if (x.kind != TableKind::FullyAssoc) {
        return false;
    }
    TwoLevelConfig tableless = b;
    tableless.table = x;
    return a == tableless;
}

/** The prediction a probed entry makes (none for a missing or
 *  invalid entry). Shared by TwoLevelPredictor::predict() and the
 *  lane engine. */
inline Prediction
twoLevelPrediction(const TableEntry *entry)
{
    if (entry == nullptr || !entry->valid)
        return Prediction{};
    return Prediction{true, entry->target,
                      static_cast<int>(entry->confidence.value())};
}

/** The outcome word (core/outcome.hh) of a probed entry for the
 *  resolved target @p actual; 0 for a missing or invalid entry.
 *  Written by the lane engine's machine pass for every machine
 *  and record. */
inline std::uint32_t
twoLevelOutcome(const TableEntry *entry, Addr actual)
{
    if (entry == nullptr || !entry->valid)
        return 0;
    return confidenceRank(true, entry->confidence.value())
               << kOutcomeRankShift |
           kOutcomeValid | (entry->target == actual ? kOutcomeCorrect : 0);
}

/**
 * The two-level target-update rule (section 3.1) applied to the
 * entry the resolved branch accessed: a replaced or empty entry takes
 * the target outright; a hit strengthens the hysteresis and
 * confidence counters; a miss weakens confidence and replaces the
 * target when the 2-bit-counter rule allows it (always, with
 * @p hysteresis off). Shared by TwoLevelPredictor::update() and the
 * lane engine, which drives tables directly.
 */
inline void
trainTwoLevelEntry(TableEntry &entry, bool replaced, Addr actual,
                   bool hysteresis)
{
    if (replaced || !entry.valid) {
        entry.target = actual;
        entry.valid = true;
    } else if (entry.target == actual) {
        entry.hysteresis.hit();
        entry.confidence.increment();
    } else {
        entry.confidence.decrement();
        if (!hysteresis || entry.hysteresis.miss())
            entry.target = actual;
    }
}

class TwoLevelPredictor final : public IndirectPredictor
{
  public:
    explicit TwoLevelPredictor(const TwoLevelConfig &config);

    Prediction predict(Addr pc) override;
    void update(Addr pc, Addr actual) override;
    void observeConditional(Addr pc, bool taken, Addr target) override;

    /** Conditionals matter to the section 3.3 variant only. */
    bool
    consumesConditionals() const override
    {
        return _config.includeConditionalTargets;
    }

    void reset() override;
    std::string name() const override;

    std::uint64_t tableCapacity() const override
    {
        return ownTable().capacity();
    }
    std::uint64_t tableOccupancy() const override
    {
        return ownTable().occupancy();
    }

    const TwoLevelConfig &config() const { return _config; }

    /**
     * Direct table access for the lane engine (sim/simulator.cc),
     * which drives machines table-first with the sweep kernel's keys:
     * prefetch/probe/access on the table without re-entering
     * predict()/update().
     */
    TargetTable &table() { return ownTable(); }

    /** The table implementation pinned at construction. */
    TableImpl tableImpl() const { return _tableImpl; }

    /** True once this predictor allocated its second-level table.
     *  Tables are allocated on first use, so a predictor the lane
     *  engine folds into an equal machine never owns one. */
    bool ownsTable() const { return _table != nullptr; }

  private:
    /** The key the predictor uses for @p pc right now. */
    Key currentKey(Addr pc);
    void pushHistory(Addr pc, Addr target);
    void invalidateKeyCache() { _cacheValid = false; }

    /** This predictor's own table, allocated on first use (see
     *  ownsTable()); const because capacity/occupancy queries on a
     *  never-driven predictor may be the first use. */
    TargetTable &ownTable() const;

    TwoLevelConfig _config;
    PatternBuilder _builder;
    HistoryRegister _history;
    /** Implementation pinned at construction, so a lazily allocated
     *  table matches what an eager one would have been. */
    TableImpl _tableImpl;
    mutable std::unique_ptr<TargetTable> _table;

    // predict()/update() pairs reuse the same key; cache it so the
    // pattern is assembled once per dynamic branch.
    bool _cacheValid = false;
    Addr _cachePc = 0;
    Key _cacheKey;
};

} // namespace ibp

#endif // IBP_CORE_TWO_LEVEL_HH
