/**
 * @file
 * Spec-keyed sweep-column constructors.
 *
 * The one way bench code declares a SweepColumn: one config value
 * produces BOTH the predictor factory and the canonical content hash
 * (core/spec_codec.hh) that keys the column's cells in the
 * content-addressed result store (sim/result_store.hh). The config
 * is captured by value, so the factory provably constructs exactly
 * what the hash describes. Two-level and hybrid columns also carry
 * their state machines in spec form (SweepColumn::machines), which is
 * what SuiteRunner::runBatch() plans its fused chunks from. A
 * configuration with no spec codec (the Target Cache) has no helper
 * and stays an opaque, unkeyed column.
 */

#ifndef IBP_SIM_SPEC_COLUMNS_HH
#define IBP_SIM_SPEC_COLUMNS_HH

#include <string>

#include "core/cascaded.hh"
#include "core/hybrid.hh"
#include "core/ittage.hh"
#include "core/shared_hybrid.hh"
#include "core/table_spec.hh"
#include "core/two_level.hh"
#include "sim/suite_runner.hh"

namespace ibp {

/** A keyed column simulating a TwoLevelPredictor of @p config. */
SweepColumn specColumn(std::string label,
                       const TwoLevelConfig &config);

/** A keyed column simulating a HybridPredictor of @p config. */
SweepColumn specColumn(std::string label, const HybridConfig &config);

/** A keyed column simulating a SharedHybridPredictor. */
SweepColumn specColumn(std::string label,
                       const SharedHybridConfig &config);

/** A keyed column simulating a CascadedPredictor. */
SweepColumn specColumn(std::string label,
                       const CascadedConfig &config);

/** A keyed column simulating an IttagePredictor. */
SweepColumn specColumn(std::string label, const IttageConfig &config);

/**
 * A keyed column simulating a BTB (@p hysteresis selects the
 * 2-bit-counter update rule, i.e. the paper's BTB-2BC). The table
 * kind picks the engine. A bounded table runs as the p=0 two-level
 * machine with the same hysteresis flag - counter-identical to a
 * BtbPredictor on that table, so it folds onto an equal p=0 column
 * or LRU stack in the lane engine. An unconstrained table runs a
 * BtbPredictor: the p=0 machine is counter-identical there too
 * (both pinned by BtbColumnEqualsBtbPredictor), but with nothing to
 * fold onto it ran full fig02 about 1.5x slower (0.15 s against
 * 0.10 s run_seconds at the default trace scale, 4 threads). Either
 * way the column keeps the BTB's store key (btbSpecHash()).
 */
SweepColumn btbColumn(std::string label, const TableSpec &table,
                      bool hysteresis);

} // namespace ibp

#endif // IBP_SIM_SPEC_COLUMNS_HH
