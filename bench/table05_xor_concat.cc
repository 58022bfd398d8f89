/**
 * @file
 * Reproduces Table 5: concatenating vs xor-ing the history pattern
 * with the branch address (the gshare analogy of section 4.2), for
 * path lengths 0..12 with 24-bit compressed patterns and
 * unconstrained tables.
 *
 * Paper anchors: xor loses at most a few hundredths of a percent
 * through p=8 (e.g. p=6: 6.01 vs 5.99) and under half a percent for
 * p >= 9, while halving the tag storage - so xor is adopted for all
 * resource-constrained predictors.
 */

#include "core/factory.hh"
#include "sim/experiment.hh"
#include "sim/spec_columns.hh"
#include "sim/suite_runner.hh"

#include "suites.hh"

using namespace ibp;

const ibp::ExperimentDef &
table05Experiment()
{
    static const ibp::ExperimentDef &def =
        ibp::registerExperiment({
        "table05", "Key mixing: concat vs xor (Table 5)",
        [](ExperimentContext &context) {
            SuiteRunner runner = SuiteRunner::avgSuite();
            const auto &avg = benchmarkGroups().avg;

            ResultTable table(
                "Table 5: AVG misprediction (%), pattern x address "
                "mixing",
                "operation");
            const unsigned max_p = context.quick() ? 6 : 12;
            for (unsigned p = 0; p <= max_p; ++p)
                table.addColumn("p=" + std::to_string(p));
            table.addRow("Xor");
            table.addRow("Concat");
            table.addRow("Xor-Concat");

            std::vector<std::vector<SweepColumn>> rows;
            for (unsigned p = 0; p <= max_p; ++p) {
                std::vector<SweepColumn> columns;
                for (const KeyMix mix :
                     {KeyMix::Xor, KeyMix::Concat}) {
                    TwoLevelConfig config =
                        paperTwoLevel(p, TableSpec::unconstrained());
                    config.pattern.keyMix = mix;
                    columns.push_back(specColumn(toString(mix), config));
                }
                rows.push_back(std::move(columns));
            }
            const std::vector<GridResult> grids =
                runner.runBatch(rows, context.session());
            for (unsigned p = 0; p <= max_p; ++p) {
                const GridResult &grid = grids[p];
                const double xor_rate = grid.average("xor", avg);
                const double concat_rate =
                    grid.average("concat", avg);
                table.set("Xor", "p=" + std::to_string(p), xor_rate);
                table.set("Concat", "p=" + std::to_string(p),
                          concat_rate);
                table.set("Xor-Concat", "p=" + std::to_string(p),
                          xor_rate - concat_rate);
            }
            context.emit(table);
            context.note("Paper anchors: differences of 0.01-0.5% "
                         "only; xor halves the tag storage and is "
                         "adopted.");
        },
        /*shardable=*/true});
    return def;
}
