/**
 * @file
 * Reproduces Table A-1 (appendix): per-benchmark misprediction rates
 * for the whole predictor zoo at representative table sizes. The
 * path lengths are fixed to the paper's Table A-2 winners per
 * organisation and size class so the full 17-benchmark suite runs in
 * reasonable time (the exhaustive best-p search lives in the fig18
 * and table06 benches).
 */

#include "core/factory.hh"
#include "sim/experiment.hh"
#include "sim/spec_columns.hh"
#include "sim/suite_runner.hh"

#include "suites.hh"

using namespace ibp;

namespace {

/** Table A-2 winning path length per organisation and size. */
unsigned
bestPathLength(const std::string &org, std::uint64_t size)
{
    // Condensed from Table A-2 of the paper.
    if (org == "tagless")
        return size <= 64 ? 1 : size <= 8192 ? 3 : 5;
    if (org == "assoc2")
        return size <= 128 ? 1 : size <= 1024 ? 2 : 3;
    if (org == "assoc4")
        return size <= 128 ? 1 : size <= 512 ? 2 : 3;
    // fullassoc
    return size <= 128 ? 1 : size <= 512 ? 2 : size <= 1024 ? 3 : 4;
}

} // namespace

const ibp::ExperimentDef &
tableA1Experiment()
{
    static const ibp::ExperimentDef &def =
        ibp::registerExperiment({
        "tableA1", "Per-benchmark predictor grid (Table A-1)", [](ExperimentContext &context) {
            SuiteRunner runner = SuiteRunner::fullSuite();

            std::vector<std::uint64_t> sizes = {256, 1024, 8192};
            if (context.quick())
                sizes = {1024};

            std::vector<std::vector<SweepColumn>> grids;
            for (const std::uint64_t size : sizes) {
                std::vector<SweepColumn> columns;
                columns.push_back(btbColumn(
                    "btb-fa", TableSpec::fullyAssoc(size), true));
                for (const std::string org : {"tagless", "assoc1",
                                              "assoc2", "assoc4",
                                              "fullassoc"}) {
                    const unsigned p = bestPathLength(
                        org == "assoc1" ? "assoc2" : org, size);
                    TableSpec spec;
                    if (org == "tagless")
                        spec = TableSpec::tagless(size);
                    else if (org == "fullassoc")
                        spec = TableSpec::fullyAssoc(size);
                    else if (org == "assoc1")
                        spec = TableSpec::setAssoc(size, 1);
                    else if (org == "assoc2")
                        spec = TableSpec::setAssoc(size, 2);
                    else
                        spec = TableSpec::setAssoc(size, 4);
                    columns.push_back(
                        specColumn(org, paperTwoLevel(p, spec)));
                }
                // Hybrids at half-size components, paper-typical
                // combos for the size class.
                const unsigned long_p = size <= 1024 ? 3 : 6;
                const unsigned short_p = size <= 1024 ? 1 : 2;
                const std::uint64_t comp = size / 2;
                for (const std::string org :
                     {"tagless", "assoc2", "assoc4"}) {
                    const TableSpec spec =
                        org == "tagless"
                            ? TableSpec::tagless(comp)
                            : TableSpec::setAssoc(
                                  comp, org == "assoc2" ? 2 : 4);
                    columns.push_back(specColumn(
                        "hyb-" + org,
                        paperHybrid(long_p, short_p, spec)));
                }

                grids.push_back(std::move(columns));
            }
            const std::vector<GridResult> results =
                runner.runBatch(grids, context.session());
            for (std::size_t i = 0; i < sizes.size(); ++i) {
                context.emit(runner.benchmarkTable(
                    "Table A-1 (size " + std::to_string(sizes[i]) +
                        "): misprediction (%), Table A-2 path "
                        "lengths",
                    results[i], grids[i]));
            }
            context.note(
                "Paper anchors at 1K: AVG btb 24.93, tagless 11.74, "
                "assoc2 10.74, assoc4 9.82, fullassoc 8.48, hybrid "
                "assoc4 8.98; per-benchmark spreads from idl (~1%) "
                "to gcc (~25%).");
        },
        /*shardable=*/true});
    return def;
}
