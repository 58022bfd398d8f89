/**
 * @file
 * Reproduces Figure 18 (non-hybrid side) and the non-hybrid columns
 * of Tables A-1/A-2: for every table size and organisation (tagless,
 * 2-way, 4-way, fully-associative, plus the BTB reference), the best
 * path length's AVG misprediction rate and which p achieved it.
 *
 * Paper anchors (AVG, best p): 1K entries - tagless 11.4/p3,
 * 2-way 10.7/p2, 4-way 9.8/p3, fullassoc 8.5/p3; 8K entries -
 * tagless 8.5/p4, 4-way 7.3/p4, fullassoc 6.6/p5; BTB flat at 24.9.
 */

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/btb.hh"
#include "core/factory.hh"
#include "sim/experiment.hh"
#include "sim/spec_columns.hh"
#include "sim/suite_runner.hh"

#include "suites.hh"

using namespace ibp;

const ibp::ExperimentDef &
fig18Experiment()
{
    static const ibp::ExperimentDef &def =
        ibp::registerExperiment({
        "fig18", "Best non-hybrid predictor per size (Figure 18)", [](ExperimentContext &context) {
            SuiteRunner runner = SuiteRunner::avgSuite();
            const auto &avg = benchmarkGroups().avg;

            std::vector<std::uint64_t> sizes = {
                64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384,
                32768};
            std::vector<unsigned> path_lengths = {0, 1, 2, 3,
                                                  4, 5, 6};
            if (context.quick()) {
                sizes = {256, 2048, 16384};
                path_lengths = {0, 2, 4};
            }

            ResultTable best("Figure 18: best AVG misprediction (%) "
                             "per size and organisation",
                             "entries");
            ResultTable best_p("Table A-2: path length of the best "
                               "predictor",
                               "entries");
            for (const auto &org :
                 {"btb", "tagless", "assoc2", "assoc4", "fullassoc"}) {
                best.addColumn(org);
                if (std::string(org) != "btb")
                    best_p.addColumn(org);
            }
            best_p.setPrecision(0);

            const std::vector<std::string> orgs = {
                "tagless", "assoc2", "assoc4", "fullassoc"};
            // One batch: per size, the BTB reference (fully
            // associative) and one grid per organisation over the
            // path lengths.
            std::vector<std::vector<SweepColumn>> grids;
            for (const std::uint64_t size : sizes) {
                grids.push_back({btbColumn(
                    "btb", TableSpec::fullyAssoc(size), true)});
                for (const std::string &org : orgs) {
                    std::vector<SweepColumn> columns;
                    for (unsigned p : path_lengths) {
                        TableSpec spec;
                        if (org == "tagless")
                            spec = TableSpec::tagless(size);
                        else if (org == "assoc2")
                            spec = TableSpec::setAssoc(size, 2);
                        else if (org == "assoc4")
                            spec = TableSpec::setAssoc(size, 4);
                        else
                            spec = TableSpec::fullyAssoc(size);
                        columns.push_back(
                            specColumn("p=" + std::to_string(p),
                                       paperTwoLevel(p, spec)));
                    }
                    grids.push_back(std::move(columns));
                }
            }
            const std::vector<GridResult> results =
                runner.runBatch(grids, context.session());

            std::size_t next = 0;
            for (const std::uint64_t size : sizes) {
                const std::string row = std::to_string(size);
                best.set(row, "btb",
                         results[next++].average("btb", avg));
                for (const std::string &org : orgs) {
                    const GridResult &grid = results[next++];
                    double best_rate = 1e9;
                    unsigned winner = 0;
                    for (unsigned p : path_lengths) {
                        const double rate = grid.average(
                            "p=" + std::to_string(p), avg);
                        if (rate < best_rate) {
                            best_rate = rate;
                            winner = p;
                        }
                    }
                    best.set(row, org, best_rate);
                    best_p.set(row, org, static_cast<double>(winner));
                }
            }
            context.emit(best);
            context.emit(best_p);
            context.note(
                "Paper anchors: two-level beats the BTB threefold "
                "for 1K+ tables; the winning path length grows with "
                "size; fullassoc < assoc4 < assoc2 < tagless at "
                "every size.");
        },
        /*shardable=*/true});
    return def;
}
