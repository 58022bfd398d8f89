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
#include "core/pattern.hh"
#include "core/predictor.hh"
#include "core/table_spec.hh"

namespace ibp {

class SweepHistoryGroup;
class SweepKeyVariant;

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

    /**
     * Exact configuration equality. Two predictors with equal
     * configurations are identical state machines: fed the same
     * branch stream they hold the same tables, histories and
     * counters forever (the property SweepKernel::dedupe() exploits).
     */
    bool operator==(const TwoLevelConfig &other) const = default;
};

class TwoLevelPredictor final : public IndirectPredictor
{
  public:
    explicit TwoLevelPredictor(const TwoLevelConfig &config);

    Prediction predict(Addr pc) override;
    void update(Addr pc, Addr actual) override;
    void observeConditional(Addr pc, bool taken, Addr target) override;
    bool joinSweepKernel(SweepKernel &kernel) override;

    /** Conditionals only matter while the 3.3 variant still owns its
     *  history; bound columns fold them in through the kernel. */
    bool
    consumesConditionals() const override
    {
        return _config.includeConditionalTargets &&
               _sweepGroup == nullptr;
    }

    /** Bound to a sweep kernel (joinSweepKernel accepted). */
    bool sweepBound() const { return _sweepGroup != nullptr; }

    /** The dedup primary this column mirrors, nullptr when it owns
     *  its own state (see _sweepPrimary). For the lane engine. */
    TwoLevelPredictor *sweepPrimary() const { return _sweepPrimary; }

    void reset() override;
    std::string name() const override;

    std::uint64_t tableCapacity() const override
    {
        return stateOwner()->ownTable().capacity();
    }
    std::uint64_t tableOccupancy() const override
    {
        return stateOwner()->ownTable().occupancy();
    }

    const TwoLevelConfig &config() const { return _config; }

    /** The key the predictor would use for @p pc right now. */
    Key currentKey(Addr pc);

    /**
     * Direct state access for the lane engine (sim/simulator.cc),
     * which drives bound machines table-first: one key per shared
     * variant per record, then prefetch/probe/access on the owning
     * table without re-entering predict()/update(). Only meaningful
     * on a state owner (sweepPrimary() == nullptr).
     */
    SweepKeyVariant *sweepVariant() const { return _sweepVariant; }
    SweepHistoryGroup *sweepGroup() const { return _sweepGroup; }
    TargetTable &table() { return ownTable(); }
    bool replicated() const { return _replicated; }

    /** True once this predictor allocated its second-level table.
     *  Tables are allocated on first use, so a dedup replica - whose
     *  state lives in its primary's table - never owns one. */
    bool ownsTable() const { return _table != nullptr; }

    /**
     * Store @p pred as this record's memoized shared prediction, as
     * if predict() had just produced it (lane engine only). Keeps
     * the dedup contract alive when the lane engine probes the table
     * directly: any replica or generic reader consulting
     * sharedPredict() later in the record still sees the pre-update
     * answer.
     */
    void primeSharedPrediction(Addr pc, const Prediction &pred);

  private:
    void pushHistory(Addr pc, Addr target);
    void invalidateKeyCache() { _cacheValid = false; }

    /** The predictor whose table actually holds this column's state:
     *  the dedup primary when this is a replica, else this. */
    const TwoLevelPredictor *
    stateOwner() const
    {
        return _sweepPrimary != nullptr ? _sweepPrimary : this;
    }

    /** This predictor's own table, allocated on first use (see
     *  ownsTable()); const because capacity/occupancy queries on a
     *  never-driven predictor may be the first use. */
    TargetTable &ownTable() const;

    /** The raw table lookup predict() performs when it owns state. */
    Prediction lookup(Addr pc);

    /** Bound-mode predict: memoized per (group version, pc) so dedup
     *  replicas can mirror the primary's pre-update answer. */
    Prediction sharedPredict(Addr pc);

    TwoLevelConfig _config;
    PatternBuilder _builder;
    HistoryRegister _history;
    /** Implementation pinned at construction, so a lazily allocated
     *  table matches what an eager one would have been. */
    TableImpl _tableImpl;
    mutable std::unique_ptr<TargetTable> _table;

    /**
     * Bound mode (joinSweepKernel accepted): the first-level history
     * lives in the shared group, pushHistory() is a no-op (the
     * simulation loop commits once per branch through the kernel) and
     * currentKey() delegates to the shared, version-memoized variant.
     * The local key cache below is bypassed - pushes no longer happen
     * here, so it would never be invalidated.
     */
    SweepHistoryGroup *_sweepGroup = nullptr;
    SweepKeyVariant *_sweepVariant = nullptr;

    /**
     * State deduplication (SweepKernel::dedupe()): when an
     * earlier-joined column has an equal TwoLevelConfig, this
     * predictor becomes its *replica* - predict() mirrors the
     * primary's memoized per-record prediction, update() is a
     * no-op, occupancy/capacity report the primary's table, and
     * its own table is never allocated. Identical configurations fed
     * the identical record stream evolve identically, so every
     * mirrored answer is bit-for-bit what this column's own table
     * would have produced.
     */
    TwoLevelPredictor *_sweepPrimary = nullptr;

    /** Set by SweepKernel::dedupe() on a primary that acquired at
     *  least one replica: only then is the prediction memo below
     *  maintained (columns nobody mirrors skip the memo stores). */
    bool _replicated = false;

    friend class SweepKernel;

    // Prediction memo (sharedPredict): built by the replicated
    // primary's own predict() before its update trains the table,
    // read by replicas later in the same record's member loop.
    std::uint64_t _predMemoVersion = 0;
    Addr _predMemoPc = 0;
    bool _predMemoValid = false;
    Prediction _predMemo;

    // predict()/update() pairs reuse the same key; cache it so the
    // pattern is assembled once per dynamic branch.
    bool _cacheValid = false;
    Addr _cachePc = 0;
    Key _cacheKey;
};

} // namespace ibp

#endif // IBP_CORE_TWO_LEVEL_HH
