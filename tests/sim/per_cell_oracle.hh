/**
 * @file
 * The per-cell differential oracle for grid tests: every (column,
 * benchmark) cell simulated alone with simulate(), on a freshly built
 * predictor over the reference (node-based) tables. No fused
 * traversal, no shared history, no lane engine - the plainest way the
 * library can produce a grid, against which SuiteRunner's fused
 * engine is compared bit for bit. Also the fused side's boilerplate:
 * one simulateMany() through a fresh SweepKernel (simulateFused()).
 */

#ifndef IBP_TESTS_SIM_PER_CELL_ORACLE_HH
#define IBP_TESTS_SIM_PER_CELL_ORACLE_HH

#include <span>
#include <vector>

#include "core/sweep_kernel.hh"
#include "core/table_spec.hh"
#include "sim/simulator.hh"
#include "sim/suite_runner.hh"

namespace ibp {

/** One cell alone: a fresh predictor from @p column, built on the
 *  reference tables, simulate()d over @p trace. */
inline SimResult
perCellResult(const SweepColumn &column, const Trace &trace,
              const SimOptions &options = {})
{
    const TableImpl initial = tableImplementation();
    setTableImplementation(TableImpl::Reference);
    const auto predictor = column.make();
    SimResult result = simulate(*predictor, trace, options);
    setTableImplementation(initial);
    return result;
}

/** One fused simulateMany() of @p raw over @p trace: every predictor
 *  is offered to a fresh SweepKernel, which drives the traversal
 *  (@p options' other fields pass through). */
inline std::vector<SimResult>
simulateFused(std::span<IndirectPredictor *const> raw, const Trace &trace,
              SimOptions options = {})
{
    SweepKernel kernel;
    for (IndirectPredictor *predictor : raw)
        kernel.tryJoin(*predictor);
    kernel.finalize();
    options.kernel = &kernel;
    return simulateMany(raw, trace, options);
}

inline GridResult
perCellOracle(const SuiteRunner &runner,
              const std::vector<SweepColumn> &columns)
{
    GridResult grid;
    for (const SweepColumn &column : columns) {
        for (const std::string &name : runner.benchmarks()) {
            grid.set(column.label, name,
                     perCellResult(column, runner.trace(name))
                         .missPercent());
        }
    }
    return grid;
}

} // namespace ibp

#endif // IBP_TESTS_SIM_PER_CELL_ORACLE_HH
