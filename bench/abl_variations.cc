/**
 * @file
 * Reproduces the paper's negative results (sections 3.3 and 4.1) as
 * an ablation bench:
 *
 *  - including the branch address alongside each target in the
 *    history (inferior for any p);
 *  - including taken conditional-branch targets in the history
 *    (pushes relevant indirect targets out of the pattern);
 *  - omitting the branch address from the key (p=8: 6.0% -> 9.6%);
 *  - fold-xor and shift-xor target compression (no reliable win
 *    over plain bit selection, more logic);
 *  - updating the target on every miss instead of the
 *    two-bit-counter rule (worse nearly everywhere, section 3.1).
 */

#include "core/factory.hh"
#include "sim/experiment.hh"
#include "sim/spec_columns.hh"
#include "sim/suite_runner.hh"

#include "suites.hh"

using namespace ibp;

const ibp::ExperimentDef &
ablVariationsExperiment()
{
    static const ibp::ExperimentDef &def =
        ibp::registerExperiment({
        "abl_variations", "Rejected design variants (sections "
        "3.3/4.1)", [](ExperimentContext &context) {
            // Conditional records are needed by the
            // conditional-targets variant.
            SuiteRunner runner(benchmarkGroups().avg, true);

            const unsigned p = context.quick() ? 4 : 8;

            // Each variant changes one field of the baseline; the
            // two compressor variants change one field of plain bit
            // selection.
            const TwoLevelConfig baseline = unconstrainedTwoLevel(p);
            const TwoLevelConfig bit_select =
                paperTwoLevel(p, TableSpec::unconstrained());
            TwoLevelConfig addr_in_hist = baseline;
            addr_in_hist.historyElement = HistoryElement::TargetAndAddress;
            TwoLevelConfig cond_in_hist = baseline;
            cond_in_hist.includeConditionalTargets = true;
            TwoLevelConfig no_addr = baseline;
            no_addr.pattern.includeBranchAddress = false;
            TwoLevelConfig fold_xor = bit_select;
            fold_xor.pattern.compressor = CompressorKind::FoldXor;
            TwoLevelConfig shift_xor = bit_select;
            shift_xor.pattern.compressor = CompressorKind::ShiftXor;
            TwoLevelConfig no_2bc = baseline;
            no_2bc.hysteresis = false;
            const std::vector<SweepColumn> columns = {
                specColumn("baseline", baseline),
                specColumn("addr-in-hist", addr_in_hist),
                specColumn("cond-in-hist", cond_in_hist),
                specColumn("no-addr", no_addr),
                specColumn("fold-xor", fold_xor),
                specColumn("shift-xor", shift_xor),
                specColumn("bit-select", bit_select),
                specColumn("no-2bc", no_2bc),
            };

            const GridResult grid =
                runner.run(columns, context.session());
            context.emit(runner.groupTable(
                "Rejected variants, p=" + std::to_string(p) +
                    ", unconstrained (misprediction %)",
                grid, columns));
            context.note(
                "Paper anchors: every variant loses to the baseline "
                "- omitting the branch address costs ~3.6% absolute "
                "at p=8; conditional targets crowd out indirect "
                "history; fold/shift-xor do not beat bit selection; "
                "updating on every miss is worse.");
        },
        /*shardable=*/true});
    return def;
}
