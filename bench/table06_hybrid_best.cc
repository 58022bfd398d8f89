/**
 * @file
 * Reproduces Table 6 and the hybrid side of Figure 18 / Tables
 * A-1/A-2: the best two-component hybrid predictor for each total
 * table size and organisation (tagless, 2-way, 4-way), its component
 * path lengths, and the comparison against the best non-hybrid
 * predictor of the same total size.
 *
 * Paper anchors (AVG): 1K total - tagless 11.42 (p 3.1), assoc2 9.56
 * (3.1), assoc4 8.98 (3.1); 8K total - tagless 7.76 (3.7), assoc2
 * 6.40 (6.2), assoc4 5.95 (6.2). Hybrids beat equal-sized
 * non-hybrids everywhere above 64 entries, and for >= 4K a 4-way
 * hybrid beats even a fully-associative non-hybrid table.
 */

#include "core/factory.hh"
#include "sim/experiment.hh"
#include "sim/spec_columns.hh"
#include "sim/suite_runner.hh"

#include "suites.hh"

using namespace ibp;

const ibp::ExperimentDef &
table06Experiment()
{
    static const ibp::ExperimentDef &def =
        ibp::registerExperiment({
        "table06", "Best hybrid predictors (Table 6 / Figure 18)", [](ExperimentContext &context) {
            SuiteRunner runner = SuiteRunner::avgSuite();
            const auto &avg = benchmarkGroups().avg;

            // Candidate (short, long) component pairs; the paper's
            // winners all lie in this set.
            std::vector<std::pair<unsigned, unsigned>> pairs = {
                {0, 2}, {1, 0}, {1, 3}, {1, 4}, {2, 0}, {2, 1},
                {3, 1}, {4, 1}, {5, 1}, {5, 2}, {6, 2}, {7, 2},
                {3, 7}, {8, 2}};
            std::vector<std::uint64_t> totals = {
                128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768};
            if (context.quick()) {
                pairs = {{1, 3}, {3, 1}, {6, 2}};
                totals = {1024, 8192};
            }

            ResultTable table("Table 6: best hybrid AVG "
                              "misprediction (%) per total size",
                              "entries");
            ResultTable winners("Table 6: winning component path "
                                "lengths (p1.p2)",
                                "entries");
            for (const auto &org : {"tagless", "assoc2", "assoc4"}) {
                table.addColumn(org);
                winners.addColumn(org);
            }
            winners.setPrecision(1);

            // One grid per (total size, organisation) that fits.
            std::vector<std::vector<SweepColumn>> grids;
            std::vector<std::pair<std::string, std::string>> places;
            for (const std::uint64_t total : totals) {
                for (unsigned ways : {0u, 2u, 4u}) {
                    const std::uint64_t comp = total / 2;
                    if (ways != 0 && comp / ways == 0)
                        continue;

                    const TableSpec spec =
                        ways == 0 ? TableSpec::tagless(comp)
                                  : TableSpec::setAssoc(comp, ways);
                    std::vector<SweepColumn> columns;
                    for (const auto &[p1, p2] : pairs) {
                        columns.push_back(specColumn(
                            std::to_string(p1) + "." +
                                std::to_string(p2),
                            paperHybrid(p1, p2, spec)));
                    }
                    grids.push_back(std::move(columns));
                    places.emplace_back(
                        std::to_string(total),
                        ways == 0 ? "tagless"
                                  : "assoc" + std::to_string(ways));
                }
            }
            const std::vector<GridResult> results =
                runner.runBatch(grids, context.session());

            for (std::size_t i = 0; i < grids.size(); ++i) {
                const auto &[row, org] = places[i];
                double best_rate = 1e9;
                double best_combo = 0;
                for (const auto &[p1, p2] : pairs) {
                    const std::string label = std::to_string(p1) +
                                              "." +
                                              std::to_string(p2);
                    const double rate = results[i].average(label, avg);
                    if (rate < best_rate) {
                        best_rate = rate;
                        best_combo = static_cast<double>(p1) +
                                     static_cast<double>(p2) / 10.0;
                    }
                }
                table.set(row, org, best_rate);
                winners.set(row, org, best_combo);
            }
            context.emit(table);
            context.emit(winners);
            context.note(
                "Paper anchors: 1K 4-way 8.98 (3.1); 8K 4-way 5.95 "
                "(6.2); short+long combinations win, and the best "
                "path lengths grow with table size.");
        },
        /*shardable=*/true});
    return def;
}
