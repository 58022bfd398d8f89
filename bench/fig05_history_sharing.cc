/**
 * @file
 * Reproduces Figure 5: influence of history-pattern sharing (the
 * first-level parameter s) for path length p = 8 with per-branch
 * history-table entries, unconstrained tables, full precision.
 *
 * Paper anchors: AVG falls from 9.4% (per-address histories, s=2) to
 * 6.0% (one global history); the OO suite benefits most (8.7% to
 * 5.6%); only AVG-infreq prefers per-address histories.
 */

#include "core/factory.hh"
#include "sim/experiment.hh"
#include "sim/spec_columns.hh"
#include "sim/suite_runner.hh"

#include "suites.hh"

using namespace ibp;

const ibp::ExperimentDef &
fig05Experiment()
{
    static const ibp::ExperimentDef &def =
        ibp::registerExperiment({
        "fig05", "History-pattern sharing sweep (Figure 5)", [](ExperimentContext &context) {
            SuiteRunner runner = SuiteRunner::fullSuite();

            std::vector<SweepColumn> columns;
            std::vector<unsigned> sweep = {2,  4,  6,  8,  10, 12,
                                           14, 16, 18, 20, 22, 32};
            if (context.quick())
                sweep = {2, 8, 16, 32};
            for (unsigned s : sweep) {
                columns.push_back(specColumn(
                    "s=" + std::to_string(s),
                    unconstrainedTwoLevel(8, s)));
            }

            const GridResult grid =
                runner.run(columns, context.session());
            context.emit(runner.groupTable(
                "Figure 5: misprediction (%) vs history sharing s "
                "(p=8, per-address tables)",
                grid, columns));
            context.note(
                "Paper anchors: AVG 9.4 (s=2) -> 6.0 (global); "
                "AVG-infreq is the only group preferring per-address "
                "histories.");
        },
        /*shardable=*/true});
    return def;
}
