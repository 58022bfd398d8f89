/**
 * @file
 * Reproduces Figure 11: bounded fully-associative tables with LRU
 * replacement introduce capacity misses. Sweeps table sizes 64..32K
 * against path lengths 0,1,2,3,4,6,8,10,12.
 *
 * Paper anchors: short paths saturate early (p=0 stops improving at
 * 256 entries, p=3/4 around 8K); longer paths never fully recover in
 * the explored range; the best path length grows with table size
 * (p=2 wins at 256 entries, p=3 at 1K, p=6 at 8K).
 */

#include "core/factory.hh"
#include "sim/experiment.hh"
#include "sim/spec_columns.hh"
#include "sim/suite_runner.hh"

#include "suites.hh"

using namespace ibp;

const ibp::ExperimentDef &
fig11Experiment()
{
    static const ibp::ExperimentDef &def =
        ibp::registerExperiment({
        "fig11", "Capacity misses: fully-assoc LRU tables (Figure 11)", [](ExperimentContext &context) {
            SuiteRunner runner = SuiteRunner::avgSuite();
            const auto &avg = benchmarkGroups().avg;

            std::vector<unsigned> path_lengths = {0, 1, 2, 3,
                                                  4, 6, 8, 12};
            std::vector<std::uint64_t> sizes = {64,   128,  256, 512,
                                                1024, 2048, 4096,
                                                8192, 16384, 32768};
            if (context.quick()) {
                path_lengths = {0, 2, 4, 8};
                sizes = {256, 2048, 16384};
            }

            ResultTable table(
                "Figure 11: AVG misprediction (%), fully-assoc LRU",
                "entries");
            for (unsigned p : path_lengths)
                table.addColumn("p=" + std::to_string(p));

            std::vector<std::vector<SweepColumn>> rows;
            for (std::uint64_t size : sizes) {
                std::vector<SweepColumn> columns;
                for (unsigned p : path_lengths) {
                    columns.push_back(specColumn(
                        "p=" + std::to_string(p),
                        paperTwoLevel(p, TableSpec::fullyAssoc(size))));
                }
                rows.push_back(std::move(columns));
            }
            const std::vector<GridResult> grids =
                runner.runBatch(rows, context.session());
            for (std::size_t i = 0; i < sizes.size(); ++i) {
                const std::string row = std::to_string(sizes[i]);
                for (const auto &column : rows[i]) {
                    table.set(row, column.label,
                              grids[i].average(column.label, avg));
                }
            }
            context.emit(table);
            context.note(
                "Paper anchors: p=2 best at 256 entries (12.5%), p=3 "
                "at 1K (8.5%), p=6 at 8K (6.6%); the winning path "
                "length grows with the table.");
        },
        /*shardable=*/true});
    return def;
}
