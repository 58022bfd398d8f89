/**
 * @file
 * Reproduces Figure 16: AVG misprediction rates for tagless, 2-way
 * and 4-way tables across table sizes and path lengths (reverse
 * interleaving, xor key mixing, 2bc update).
 *
 * Paper anchors: higher associativity wins at every size except
 * where *positive interference* lets tagless tables beat 4-way for
 * long paths (many patterns share a target, so an aliased slot still
 * predicts better than a tag miss); the best path length grows with
 * table size (tagless: p=3 from 128 to 8K; 4-way: p=2 at 256..512,
 * p=3 at 1K..4K, p=4 at 8K).
 */

#include "core/factory.hh"
#include "sim/experiment.hh"
#include "sim/spec_columns.hh"
#include "sim/suite_runner.hh"

#include "suites.hh"

using namespace ibp;

const ibp::ExperimentDef &
fig16Experiment()
{
    static const ibp::ExperimentDef &def =
        ibp::registerExperiment({
        "fig16", "Associativity x size x path length (Figure 16)", [](ExperimentContext &context) {
            SuiteRunner runner = SuiteRunner::avgSuite();
            const auto &avg = benchmarkGroups().avg;

            std::vector<std::uint64_t> sizes = {128,  512,  2048,
                                                8192, 32768};
            std::vector<unsigned> path_lengths = {0, 1, 2, 3, 4,
                                                  5, 6, 8, 10, 12};
            if (context.quick()) {
                sizes = {512, 8192};
                path_lengths = {0, 2, 4, 8};
            }

            const std::vector<unsigned> organisations = {0u, 2u, 4u};
            std::vector<std::vector<SweepColumn>> rows;
            for (unsigned ways : organisations) {
                for (std::uint64_t size : sizes) {
                    std::vector<SweepColumn> columns;
                    const TableSpec spec =
                        ways == 0 ? TableSpec::tagless(size)
                                  : TableSpec::setAssoc(size, ways);
                    for (unsigned p : path_lengths) {
                        columns.push_back(
                            specColumn("p=" + std::to_string(p),
                                       paperTwoLevel(p, spec)));
                    }
                    rows.push_back(std::move(columns));
                }
            }
            const std::vector<GridResult> grids =
                runner.runBatch(rows, context.session());

            std::size_t next = 0;
            for (unsigned ways : organisations) {
                const std::string org =
                    ways == 0 ? "tagless"
                              : std::to_string(ways) + "-way";
                ResultTable table("Figure 16 (" + org +
                                      "): AVG misprediction (%)",
                                  "entries");
                for (unsigned p : path_lengths)
                    table.addColumn("p=" + std::to_string(p));
                for (std::uint64_t size : sizes) {
                    const std::string row = std::to_string(size);
                    for (const auto &column : rows[next]) {
                        table.set(row, column.label,
                                  grids[next].average(column.label,
                                                      avg));
                    }
                    ++next;
                }
                context.emit(table);
            }
            context.note(
                "Paper anchors: best p grows with size; tagless "
                "tables show positive interference at long paths "
                "(sometimes beating 4-way for p >= 7).");
        },
        /*shardable=*/true});
    return def;
}
