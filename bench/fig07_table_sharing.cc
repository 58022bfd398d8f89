/**
 * @file
 * Reproduces Figure 7: influence of history-table sharing (the
 * second-level parameter h) for path length 8 with a global history
 * pattern, unconstrained tables, full precision.
 *
 * Paper anchors: AVG rises from 6.0% with per-address tables (h=2)
 * to 9.6% with one globally shared table (h=31); OO 5.6 -> 8.6,
 * C 6.8 -> 11.8. Per-address tables win, so h=2 is used everywhere
 * else in the paper.
 */

#include "core/factory.hh"
#include "sim/experiment.hh"
#include "sim/spec_columns.hh"
#include "sim/suite_runner.hh"

#include "suites.hh"

using namespace ibp;

const ibp::ExperimentDef &
fig07Experiment()
{
    static const ibp::ExperimentDef &def =
        ibp::registerExperiment({
        "fig07", "History-table sharing sweep (Figure 7)",
        [](ExperimentContext &context) {
            SuiteRunner runner = SuiteRunner::fullSuite();

            std::vector<SweepColumn> columns;
            std::vector<unsigned> sweep = {2,  4,  6,  8,  10, 12,
                                           14, 16, 18, 20, 22, 32};
            if (context.quick())
                sweep = {2, 10, 18, 32};
            for (unsigned h : sweep) {
                columns.push_back(specColumn(
                    "h=" + std::to_string(h),
                    unconstrainedTwoLevel(8, 32, h)));
            }

            const GridResult grid =
                runner.run(columns, context.session());
            context.emit(runner.groupTable(
                "Figure 7: misprediction (%) vs table sharing h "
                "(p=8, global history)",
                grid, columns));
            context.note("Paper anchors: AVG 6.0 (h=2) -> 9.6 "
                         "(shared); per-address tables win.");
        },
        /*shardable=*/true});
    return def;
}
