#include "sim/spec_columns.hh"

#include <memory>
#include <utility>

#include "core/btb.hh"
#include "core/factory.hh"
#include "core/spec_codec.hh"

namespace ibp {

SweepColumn
specColumn(std::string label, const TwoLevelConfig &config)
{
    return SweepColumn{std::move(label),
                       [config]() {
                           return std::make_unique<TwoLevelPredictor>(
                               config);
                       },
                       specHash(config),
                       {config}};
}

SweepColumn
specColumn(std::string label, const HybridConfig &config)
{
    return SweepColumn{std::move(label),
                       [config]() {
                           return std::make_unique<HybridPredictor>(
                               config);
                       },
                       specHash(config),
                       config.machineConfigs()};
}

SweepColumn
specColumn(std::string label, const SharedHybridConfig &config)
{
    return SweepColumn{
        std::move(label),
        [config]() {
            return std::make_unique<SharedHybridPredictor>(config);
        },
        specHash(config)};
}

SweepColumn
specColumn(std::string label, const CascadedConfig &config)
{
    return SweepColumn{std::move(label),
                       [config]() {
                           return std::make_unique<CascadedPredictor>(
                               config);
                       },
                       specHash(config)};
}

SweepColumn
specColumn(std::string label, const IttageConfig &config)
{
    return SweepColumn{std::move(label),
                       [config]() {
                           return std::make_unique<IttagePredictor>(
                               config);
                       },
                       specHash(config)};
}

SweepColumn
btbColumn(std::string label, const TableSpec &table, bool hysteresis)
{
    if (table.kind != TableKind::Unconstrained) {
        // A bounded BTB is the p=0 two-level machine: its key is the
        // branch address alone, and its update rule the same 2bc
        // rule (pinned by BtbColumnEqualsBtbPredictor).
        TwoLevelConfig config = paperTwoLevel(0, table);
        config.hysteresis = hysteresis;
        return SweepColumn{std::move(label),
                           [config]() {
                               return std::make_unique<TwoLevelPredictor>(
                                   config);
                           },
                           btbSpecHash(table, hysteresis),
                           {config}};
    }
    return SweepColumn{std::move(label),
                       [table, hysteresis]() {
                           return std::make_unique<BtbPredictor>(
                               table, hysteresis);
                       },
                       btbSpecHash(table, hysteresis)};
}

} // namespace ibp
