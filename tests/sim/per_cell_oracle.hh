/**
 * @file
 * The per-cell differential oracle for grid tests: every (column,
 * benchmark) cell simulated alone with simulate(), on a freshly built
 * predictor over the reference (node-based) tables. No fused
 * traversal, no shared history, no lane engine - the plainest way the
 * library can produce a grid, against which SuiteRunner's fused
 * engine is compared bit for bit.
 */

#ifndef IBP_TESTS_SIM_PER_CELL_ORACLE_HH
#define IBP_TESTS_SIM_PER_CELL_ORACLE_HH

#include <vector>

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
