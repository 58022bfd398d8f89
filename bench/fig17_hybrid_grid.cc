/**
 * @file
 * Reproduces Figure 17: prediction HIT rates of two-component hybrid
 * predictors for every path-length combination (p1, p2), 4-way
 * associative component tables with 2-bit confidence counters.
 * Component sizes 2048 and 8192 entries, as in the paper. The
 * diagonal p1 == p2 shows the non-hybrid predictor of twice the
 * component size.
 *
 * Paper anchors: the best combinations pair a short path (1..3) with
 * a long one (5..12); the grid is roughly symmetric (tie-break order
 * hardly matters); smaller tables peak at shorter path lengths.
 */

#include <memory>
#include <vector>

#include "core/factory.hh"
#include "sim/experiment.hh"
#include "sim/spec_columns.hh"
#include "sim/suite_runner.hh"

#include "suites.hh"

using namespace ibp;

const ibp::ExperimentDef &
fig17Experiment()
{
    static const ibp::ExperimentDef &def =
        ibp::registerExperiment({
        "fig17", "Hybrid path-length grid (Figure 17)",
        [](ExperimentContext &context) {
            SuiteRunner runner = SuiteRunner::avgSuite();
            const auto &avg = benchmarkGroups().avg;

            const unsigned max_p = context.quick() ? 6 : 12;
            std::vector<std::uint64_t> component_sizes = {2048, 8192};
            if (context.quick())
                component_sizes = {2048};

            // Every row of both component sizes is one grid of ONE
            // batch: the engine simulates each distinct component
            // machine once per benchmark, however many rows share it.
            std::vector<std::vector<SweepColumn>> rows;
            for (const std::uint64_t comp : component_sizes) {
                for (unsigned p1 = 0; p1 <= max_p; ++p1) {
                    std::vector<SweepColumn> columns;
                    for (unsigned p2 = 0; p2 <= max_p; ++p2) {
                        if (p1 == p2) {
                            columns.push_back(specColumn(
                                std::to_string(p2),
                                paperTwoLevel(
                                    p1, TableSpec::setAssoc(2 * comp,
                                                            4))));
                        } else {
                            columns.push_back(specColumn(
                                std::to_string(p2),
                                paperHybrid(
                                    p1, p2,
                                    TableSpec::setAssoc(comp, 4))));
                        }
                    }
                    rows.push_back(std::move(columns));
                }
            }
            const std::vector<GridResult> grids =
                runner.runBatch(rows, context.session());

            std::size_t row_index = 0;
            for (const std::uint64_t comp : component_sizes) {
                ResultTable table(
                    "Figure 17: AVG hit rate (%), hybrid 4-way, "
                    "component size " + std::to_string(comp) +
                        " (diagonal = non-hybrid of twice the size)",
                    "p1\\p2");
                for (unsigned p2 = 0; p2 <= max_p; ++p2)
                    table.addColumn(std::to_string(p2));
                for (unsigned p1 = 0; p1 <= max_p; ++p1) {
                    const GridResult &grid = grids[row_index];
                    const std::string row = std::to_string(p1);
                    for (const auto &column : rows[row_index]) {
                        table.set(row, column.label,
                                  100.0 - grid.average(column.label,
                                                       avg));
                    }
                    ++row_index;
                }
                context.emit(table);
            }
            context.note(
                "Paper anchors: best cells pair short (1..3) with "
                "long (5..12) paths; the grid is nearly symmetric.");
        },
        /*shardable=*/true});
    return def;
}
