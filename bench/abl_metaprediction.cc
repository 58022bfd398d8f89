/**
 * @file
 * Reproduces the section 6.1 metaprediction study: per-entry
 * confidence counters of width 1..4 bits versus a classic
 * branch-predictor-selection-table (BPST [McFar93]), and the effect
 * of component (tie-break) order.
 *
 * Paper anchors: 2-bit confidence counters usually perform best (1
 * bit is worse, 3/4 bits bring nothing); the fine-grained per-entry
 * scheme beats the per-branch BPST; component order matters little
 * (the Figure 17 grid is nearly symmetric).
 */

#include "core/factory.hh"
#include "sim/experiment.hh"
#include "sim/spec_columns.hh"
#include "sim/suite_runner.hh"

#include "suites.hh"

using namespace ibp;

const ibp::ExperimentDef &
ablMetapredictionExperiment()
{
    static const ibp::ExperimentDef &def =
        ibp::registerExperiment({
        "abl_meta", "Metaprediction ablation (section 6.1)", [](ExperimentContext &context) {
            SuiteRunner runner = SuiteRunner::avgSuite();

            const std::uint64_t comp = context.quick() ? 512 : 1024;
            const unsigned short_p = 1, long_p = 5;

            const TableSpec spec = TableSpec::setAssoc(comp, 4);
            const HybridConfig base = paperHybrid(long_p, short_p, spec);

            std::vector<SweepColumn> columns;
            for (unsigned bits : {1u, 2u, 3u, 4u}) {
                HybridConfig config = base;
                config.confidenceBits = bits;
                columns.push_back(
                    specColumn("conf" + std::to_string(bits), config));
            }
            HybridConfig bpst = base;
            bpst.meta = MetaKind::Selector;
            columns.push_back(specColumn("bpst", bpst));
            bpst.selectorEntries = 512;
            columns.push_back(specColumn("bpst-512", bpst));
            columns.push_back(specColumn(
                "swapped", paperHybrid(short_p, long_p, spec)));

            const GridResult grid =
                runner.run(columns, context.session());
            context.emit(runner.groupTable(
                "Metaprediction variants (hybrid p=" +
                    std::to_string(long_p) + "." +
                    std::to_string(short_p) + ", 4-way, " +
                    std::to_string(comp) +
                    "-entry components), misprediction (%)",
                grid, columns));
            context.note(
                "Paper anchors: 2-bit confidence best (small "
                "margins); per-pattern confidence beats the "
                "per-branch BPST; component order barely matters.");
        },
        /*shardable=*/true});
    return def;
}
