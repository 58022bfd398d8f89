/**
 * @file
 * The indirect-branch predictor interface.
 *
 * The simulator drives every predictor with the same trace-driven
 * protocol the paper uses for each dynamic indirect branch:
 *
 *   1. predict(pc)      - consult tables/history, produce a target;
 *   2. update(pc, t)    - the branch resolved to t; update tables
 *                         (subject to the 2-bit-counter hysteresis
 *                         rule), confidence counters and history.
 *
 * Conditional branches are offered via observeConditional() so that
 * the Target Cache baseline and the section 3.3 "conditional targets
 * in the history" variant can consume them; most predictors ignore
 * them.
 */

#ifndef IBP_CORE_PREDICTOR_HH
#define IBP_CORE_PREDICTOR_HH

#include <string>

#include "util/bits.hh"

namespace ibp {

/** Outcome of a prediction lookup. */
struct Prediction
{
    /** False when the predictor has no entry for this branch. */
    bool valid = false;
    /** Predicted target (meaningful only when valid). */
    Addr target = 0;
    /**
     * Metaprediction confidence of the entry that produced the
     * target; -1 when there is no prediction. Used by hybrid
     * predictors to choose among components.
     */
    int confidence = -1;

    /** A miss is a wrong target or no prediction at all. */
    bool
    correctFor(Addr actual) const
    {
        return valid && target == actual;
    }
};

class IndirectPredictor
{
  public:
    virtual ~IndirectPredictor() = default;

    /** Predict the target of the indirect branch at @p pc. */
    virtual Prediction predict(Addr pc) = 0;

    /** Commit the resolved target of the branch at @p pc. */
    virtual void update(Addr pc, Addr actual) = 0;

    /** Observe a conditional branch (default: ignore). */
    virtual void
    observeConditional(Addr pc, bool taken, Addr target)
    {
        (void)pc;
        (void)taken;
        (void)target;
    }

    /**
     * True when observeConditional() has any observable effect (the
     * Target Cache; the section 3.3 conditional-history variant). The
     * lane engine skips conditional records wholesale when none of
     * its generic columns consumes them and no sweep kernel group
     * folds them into a shared history.
     */
    virtual bool consumesConditionals() const { return false; }

    /** Forget all state (tables, histories, counters). */
    virtual void reset() = 0;

    /** Short configuration description for reports. */
    virtual std::string name() const = 0;

    /** Total second-level entry capacity (0 = unbounded). */
    virtual std::uint64_t tableCapacity() const = 0;

    /** Currently valid second-level entries (table utilisation). */
    virtual std::uint64_t tableOccupancy() const = 0;
};

} // namespace ibp

#endif // IBP_CORE_PREDICTOR_HH
