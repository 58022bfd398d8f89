/**
 * @file
 * Simulation-engine throughput benchmarks. Two modes:
 *
 *  - Default: google-benchmark microbenchmarks (one predict() +
 *    update() pair per iteration, driven by a real synthetic trace),
 *    for interactive profiling of each predictor family.
 *
 *  - Artifact mode (any --json=, --csv= or --daemon argument): the
 *    BENCH_micro experiment (micro_suite.cc) through the standard
 *    bench front end, daemon routing included - measures whole-cell
 *    simulate() throughput flat vs reference and writes a
 *    BENCH_micro run artifact for the CI throughput floor.
 *
 * Not a paper experiment - this guards the simulation engine's
 * performance, which bounds how large the reproduction sweeps can be.
 */

#include <benchmark/benchmark.h>

#include <string_view>

#include "core/btb.hh"
#include "core/factory.hh"
#include "sim/simulator.hh"
#include "synth/benchmark_suite.hh"

#include "common_flags.hh"
#include "suites.hh"

namespace {

const ibp::Trace &
benchTrace()
{
    static const ibp::Trace trace = [] {
        ibp::GeneratorOptions options;
        options.events = 100000;
        return ibp::generateTrace(ibp::benchmarkProfile("porky"),
                                  options);
    }();
    return trace;
}

void
driveLoop(benchmark::State &state, ibp::IndirectPredictor &predictor)
{
    const ibp::Trace &trace = benchTrace();
    std::size_t index = 0;
    for (auto _ : state) {
        const ibp::BranchRecord record = trace[index];
        if (++index == trace.size())
            index = 0;
        if (!record.isPredictedIndirect())
            continue;
        const ibp::Prediction prediction =
            predictor.predict(record.pc);
        benchmark::DoNotOptimize(prediction);
        predictor.update(record.pc, record.target);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}

void
BM_BtbUnconstrained(benchmark::State &state)
{
    ibp::BtbPredictor predictor(ibp::TableSpec::unconstrained(),
                                true);
    driveLoop(state, predictor);
}
BENCHMARK(BM_BtbUnconstrained);

void
BM_TwoLevelUnconstrained(benchmark::State &state)
{
    ibp::TwoLevelPredictor predictor(ibp::unconstrainedTwoLevel(6));
    driveLoop(state, predictor);
}
BENCHMARK(BM_TwoLevelUnconstrained);

void
BM_TwoLevelSetAssoc(benchmark::State &state)
{
    ibp::TwoLevelPredictor predictor(ibp::paperTwoLevel(
        static_cast<unsigned>(state.range(0)),
        ibp::TableSpec::setAssoc(4096, 4)));
    driveLoop(state, predictor);
}
BENCHMARK(BM_TwoLevelSetAssoc)->Arg(1)->Arg(3)->Arg(6)->Arg(12);

void
BM_TwoLevelTagless(benchmark::State &state)
{
    ibp::TwoLevelPredictor predictor(
        ibp::paperTwoLevel(3, ibp::TableSpec::tagless(4096)));
    driveLoop(state, predictor);
}
BENCHMARK(BM_TwoLevelTagless);

void
BM_TwoLevelFullyAssoc(benchmark::State &state)
{
    ibp::TwoLevelPredictor predictor(
        ibp::paperTwoLevel(3, ibp::TableSpec::fullyAssoc(4096)));
    driveLoop(state, predictor);
}
BENCHMARK(BM_TwoLevelFullyAssoc);

void
BM_Hybrid(benchmark::State &state)
{
    ibp::HybridPredictor predictor(ibp::paperHybrid(
        3, 1, ibp::TableSpec::setAssoc(2048, 4)));
    driveLoop(state, predictor);
}
BENCHMARK(BM_Hybrid);

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg(argv[i]);
        if (arg.rfind("--json=", 0) == 0 ||
            arg.rfind("--csv=", 0) == 0 ||
            arg.rfind("--daemon", 0) == 0) {
            return ibp::runBenchMain(microThroughputExperiment(),
                                     argc, argv);
        }
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
