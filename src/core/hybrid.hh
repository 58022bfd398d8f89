/**
 * @file
 * Hybrid indirect branch predictors (section 6 of the paper).
 *
 * A hybrid predictor combines two or more component predictors
 * (typically a short and a long path length: the short one adapts
 * quickly after phase changes, the long one captures longer-range
 * correlations). A metapredictor chooses which component's target to
 * use:
 *
 *  - Confidence (the paper's scheme, section 6.1): every table entry
 *    carries an n-bit saturating counter of its recent prediction
 *    success; the component whose consulted entry has the highest
 *    confidence wins, ties broken by fixed component order, and a
 *    replaced entry restarts at zero confidence.
 *
 *  - Selector: a classic branch-predictor-selection-table (BPST,
 *    McFarling [McFar93]) keyed by branch address, provided for the
 *    comparison the paper alludes to; two components only.
 */

#ifndef IBP_CORE_HYBRID_HH
#define IBP_CORE_HYBRID_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "core/flat_table.hh"
#include "core/predictor.hh"
#include "core/two_level.hh"
#include "util/sat_counter.hh"

namespace ibp {

/** Metaprediction mechanism. */
enum class MetaKind
{
    Confidence,
    Selector,
};

std::string toString(MetaKind kind);

/** Configuration of a hybrid predictor. */
struct HybridConfig
{
    /** Component configurations, in tie-break priority order. */
    std::vector<TwoLevelConfig> components;

    MetaKind meta = MetaKind::Confidence;

    /**
     * Confidence counter width (1..4 tested in the paper; 2 best).
     * Applied uniformly to all components.
     */
    unsigned confidenceBits = 2;

    /**
     * Selector-mode only: entries in the direct-mapped selection
     * table (power of two), or 0 for an unconstrained per-branch map.
     */
    std::uint64_t selectorEntries = 0;

    /** Field-wise equality (content hashing keys on it). */
    bool operator==(const HybridConfig &other) const = default;

    void validate() const;
    std::string describe() const;

    /** The component configurations a HybridPredictor actually
     *  builds: `components` with the uniform confidence width
     *  applied. */
    std::vector<TwoLevelConfig> machineConfigs() const;

    /** Convenience: the paper's usual two-component construction. */
    static HybridConfig twoComponent(const TwoLevelConfig &first,
                                     const TwoLevelConfig &second);
};

/**
 * The confidence metapredictor (section 6.1) over @p count component
 * predictions, @p prediction(k) being component k's: the highest
 * confidenceRank() wins, ties go to the earlier component (the
 * paper's "fixed ordering"), and a component with no entry ranks
 * below any real entry. Returns the winning component, or -1 when no
 * component has a valid target. The lane engine applies the same rank
 * to its outcome words (twoLevelOutcome()).
 */
template <typename PredictionAt>
inline int
confidenceChoice(unsigned count, PredictionAt &&prediction)
{
    int chosen = -1;
    std::uint32_t best = 0;
    for (unsigned k = 0; k < count; ++k) {
        const Prediction &candidate = prediction(k);
        const std::uint32_t rank = confidenceRank(
            candidate.valid, static_cast<unsigned>(candidate.confidence));
        if (rank > best) {
            best = rank;
            chosen = static_cast<int>(k);
        }
    }
    return chosen;
}

class HybridPredictor final : public IndirectPredictor
{
  public:
    explicit HybridPredictor(const HybridConfig &config);

    Prediction predict(Addr pc) override;
    void update(Addr pc, Addr actual) override;
    void observeConditional(Addr pc, bool taken, Addr target) override;
    void reset() override;
    std::string name() const override;

    std::uint64_t tableCapacity() const override;
    std::uint64_t tableOccupancy() const override;

    bool
    consumesConditionals() const override
    {
        for (const auto &component : _components) {
            if (component->consumesConditionals())
                return true;
        }
        return false;
    }

    unsigned numComponents() const
    {
        return static_cast<unsigned>(_components.size());
    }

    const HybridConfig &config() const { return _config; }

    /** Component @p i in tie-break priority order (lane engine). */
    TwoLevelPredictor &component(unsigned i) { return *_components[i]; }

    /** Which component the last predict() chose (for diagnostics). */
    int lastChosen() const { return _lastChosen; }

    /**
     * Selector metaprediction for @p pc, given whether each component
     * has a valid target: the component the selection table prefers,
     * the other one when that has no target, -1 when neither has.
     * Shared by predict() and the lane engine (which reads the bits
     * from its outcome words).
     */
    int selectorChoice(Addr pc, bool firstValid, bool secondValid);

    /**
     * Train the selection table for @p pc on whether each component's
     * pre-update prediction was correct: the counter moves toward
     * whichever component alone was right. Shared by update() and the
     * lane engine.
     */
    void trainSelector(Addr pc, bool firstCorrect, bool secondCorrect);

  private:
    SatCounter &selectorCounter(Addr pc);

    HybridConfig _config;
    std::vector<std::unique_ptr<TwoLevelPredictor>> _components;

    // Selector-mode state. The unconstrained per-branch map is a
    // FlatMap: a default-constructed SatCounter is the same 2-bit
    // zero counter the bounded table is filled with. The reference
    // implementation keeps the original node map (_flatSelector is
    // captured at construction from tableImplementation()).
    bool _flatSelector = true;
    std::vector<SatCounter> _selectorTable;
    FlatMap<Addr, SatCounter> _selectorMap;
    std::unordered_map<Addr, SatCounter> _refSelectorMap;

    // predict()/update() pairs share the component predictions.
    bool _cacheValid = false;
    Addr _cachePc = 0;
    std::vector<Prediction> _cachePreds;
    int _lastChosen = -1;
};

} // namespace ibp

#endif // IBP_CORE_HYBRID_HH
