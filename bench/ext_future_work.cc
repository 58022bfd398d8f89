/**
 * @file
 * The paper's future-work agenda (section 8.1), implemented:
 *
 *  1. Hybrids with three components and with differently-sized
 *     components;
 *  2. the shared-table hybrid whose entries carry a "chosen"
 *     counter so seldom-used entries can be recuperated by another
 *     component;
 *  3. next-branch prediction: predicting the address of the next
 *     indirect branch along with the target.
 */

#include "core/factory.hh"
#include "core/next_branch.hh"
#include "sim/experiment.hh"
#include "sim/spec_columns.hh"
#include "sim/suite_runner.hh"

#include "suites.hh"

using namespace ibp;

const ibp::ExperimentDef &
extFutureWorkExperiment()
{
    static const ibp::ExperimentDef &def =
        ibp::registerExperiment({
        "ext_future", "Future-work extensions (section 8.1)", [](ExperimentContext &context) {
            SuiteRunner runner = SuiteRunner::avgSuite();
            const std::uint64_t total = context.quick() ? 1024 : 4096;

            HybridConfig three;
            const TableSpec quarter =
                TableSpec::setAssoc((total / 4) & ~std::uint64_t{3}, 4);
            three.components = {
                paperTwoLevel(5, quarter), paperTwoLevel(2, quarter),
                paperTwoLevel(0, TableSpec::setAssoc(total / 2, 4))};
            // Differently-sized components: a small quick component
            // plus a large long-path one (3-way keeps the set count a
            // power of two).
            const HybridConfig asym = HybridConfig::twoComponent(
                paperTwoLevel(6, TableSpec::setAssoc(total * 3 / 4, 3)),
                paperTwoLevel(1, TableSpec::setAssoc(total / 4, 4)));
            SharedHybridConfig shared;
            shared.pathLengths = {3, 1};
            shared.entries = total;
            shared.ways = 4;
            SharedHybridConfig shared3 = shared;
            shared3.pathLengths = {6, 3, 1};
            const std::vector<SweepColumn> columns = {
                specColumn("2comp",
                           paperHybrid(3, 1,
                                       TableSpec::setAssoc(total / 2, 4))),
                specColumn("3comp", three),
                specColumn("asym", asym),
                specColumn("shared", shared),
                specColumn("shared-3p", shared3),
            };

            const GridResult grid =
                runner.run(columns, context.session());
            context.emit(runner.groupTable(
                "Future-work hybrids at " + std::to_string(total) +
                    " total entries (misprediction %)",
                grid, columns));
            context.note(
                "The shared table lets the component split float "
                "with usefulness; compare against the fixed "
                "half/half '2comp' baseline.");

            // Next-branch prediction (run-ahead). Evaluate the joint
            // (target, next indirect PC) accuracy on the AVG suite.
            ResultTable next_table(
                "Next-branch prediction (unconstrained, joint "
                "target+next-PC accuracy %)",
                "p");
            next_table.addColumn("target-hit%");
            next_table.addColumn("joint-hit%");
            for (unsigned p : {1u, 3u, 6u}) {
                double target_hits = 0, joint_hits = 0, total_b = 0;
                for (const auto &name : runner.benchmarks()) {
                    const Trace &trace = runner.trace(name);
                    NextBranchPredictor predictor(p);
                    for (std::size_t i = 0; i + 1 < trace.size(); ++i) {
                        const BranchRecord record = trace[i];
                        const BranchRecord next = trace[i + 1];
                        const NextBranchPrediction guess =
                            predictor.predict(record.pc);
                        total_b += 1;
                        if (guess.valid &&
                            guess.target == record.target) {
                            target_hits += 1;
                            if (guess.nextPc == next.pc)
                                joint_hits += 1;
                        }
                        predictor.update(record.pc, record.target,
                                         next.pc);
                    }
                }
                const std::string row = std::to_string(p);
                next_table.set(row, "target-hit%",
                               100.0 * target_hits / total_b);
                next_table.set(row, "joint-hit%",
                               100.0 * joint_hits / total_b);
            }
            context.emit(next_table);
            context.note(
                "Joint accuracy close to target accuracy means the "
                "path usually determines the next indirect branch "
                "too - the property run-ahead prediction needs.");
        }});
    return def;
}
