/**
 * @file
 * The BENCH_micro experiment: whole-cell simulate() throughput of a
 * Figure-18-style predictor mix, flat tables vs the retained
 * reference tables, plus the three-engine (per-column / single-pass
 * / fused) comparison on the Figure-17 row sweep, the solo vs
 * LRU-stack comparison on a fully-associative size sweep, the solo
 * vs fused tables vs set-stack comparison on a set-associative size
 * sweep and the lane engine's pair-column scoring, scalar vs AVX2.
 * Lives in the
 * suites library - separate from the google-benchmark loops in
 * micro_throughput.cc - so the ibpd daemon can serve it like any
 * paper experiment.
 *
 * Only the flat cells are recorded into the telemetry, so the
 * artifact's branches_per_second is the flat-table aggregate and CI
 * can hold it to a floor with report_diff --min-throughput; the
 * emitted table carries both sides plus the speedup.
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/btb.hh"
#include "core/factory.hh"
#include "core/simd.hh"
#include "core/sweep_kernel.hh"
#include "report/artifact.hh"
#include "sim/experiment.hh"
#include "sim/result_store.hh"
#include "sim/simulator.hh"
#include "synth/benchmark_suite.hh"
#include "util/format.hh"
#include "util/json.hh"
#include "util/rng.hh"

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

struct MixCell
{
    std::string label;
    std::function<std::unique_ptr<ibp::IndirectPredictor>()> make;
};

/** The Figure-18 organisations at 4K entries plus BTB and hybrid. */
std::vector<MixCell>
fig18Mix()
{
    using namespace ibp;
    return {
        {"btb",
         [] {
             return std::make_unique<BtbPredictor>(
                 TableSpec::fullyAssoc(4096), true);
         }},
        {"unconstrained",
         [] {
             return std::make_unique<TwoLevelPredictor>(
                 unconstrainedTwoLevel(6));
         }},
        {"tagless",
         [] {
             return std::make_unique<TwoLevelPredictor>(
                 paperTwoLevel(3, TableSpec::tagless(4096)));
         }},
        {"assoc4",
         [] {
             return std::make_unique<TwoLevelPredictor>(
                 paperTwoLevel(3, TableSpec::setAssoc(4096, 4)));
         }},
        {"fullassoc",
         [] {
             return std::make_unique<TwoLevelPredictor>(
                 paperTwoLevel(3, TableSpec::fullyAssoc(4096)));
         }},
        {"hybrid",
         [] {
             return std::make_unique<HybridPredictor>(paperHybrid(
                 3, 1, TableSpec::setAssoc(2048, 4)));
         }},
    };
}

/**
 * The Figure-17 row sweep the fused kernel exists for: p1=3 against
 * every p2 in 0..12, 4-way component tables - 13 columns sharing one
 * benchmark trace and (for the two-level first levels) one history
 * specification group. The diagonal cell (p2 == 3) is the paper's
 * non-hybrid predictor of twice the component size.
 */
std::vector<MixCell>
fig17Row()
{
    using namespace ibp;
    std::vector<MixCell> cells;
    for (unsigned p2 = 0; p2 <= 12; ++p2) {
        const std::string label = "p2=" + std::to_string(p2);
        if (p2 == 3) {
            cells.push_back({label, [] {
                                 return std::make_unique<
                                     TwoLevelPredictor>(paperTwoLevel(
                                     3,
                                     TableSpec::setAssoc(4096, 4)));
                             }});
        } else {
            cells.push_back(
                {label, [p2] {
                     return std::make_unique<HybridPredictor>(
                         paperHybrid(3, p2,
                                     TableSpec::setAssoc(2048, 4)));
                 }});
        }
    }
    return cells;
}

/**
 * Best-of-@p reps whole-cell simulate() run under the current table
 * implementation. Fresh predictor per rep (cold tables every time,
 * like a real sweep cell); best rather than mean discards scheduler
 * noise.
 */
ibp::SimResult
bestOf(const MixCell &cell, unsigned reps)
{
    ibp::SimResult best;
    for (unsigned rep = 0; rep < reps; ++rep) {
        auto predictor = cell.make();
        const ibp::SimResult result =
            ibp::simulate(*predictor, benchTrace());
        if (rep == 0 || result.seconds < best.seconds)
            best = result;
    }
    return best;
}

/**
 * The fully-associative capacity sweep of Figures 11 and 18: p=3 on
 * LRU tables of the ten sizes 64..32K. Fused, the lane engine runs
 * the ten columns as one LRU stack (core/lru_stack.hh).
 */
std::vector<MixCell>
fullAssocSweep()
{
    using namespace ibp;
    std::vector<MixCell> cells;
    for (std::uint64_t size = 64; size <= 32768; size *= 2) {
        cells.push_back({"fullassoc-" + std::to_string(size), [size] {
                             return std::make_unique<TwoLevelPredictor>(
                                 paperTwoLevel(
                                     3, TableSpec::fullyAssoc(size)));
                         }});
    }
    return cells;
}

/**
 * The set-associative size sweep of Figure 18: p=3 on 2-way and
 * 4-way tables of the ten sizes 64..32K, 2-way first. Fused, the lane
 * engine runs 2-way N with 4-way 2N (equal set counts) as one set
 * stack (core/set_stack.hh): nine stacks and two lone tables.
 */
std::vector<MixCell>
setAssocSweep(unsigned ways)
{
    using namespace ibp;
    std::vector<MixCell> cells;
    for (std::uint64_t size = 64; size <= 32768; size *= 2) {
        cells.push_back({"assoc" + std::to_string(ways) + "-" +
                             std::to_string(size),
                         [size, ways] {
                             return std::make_unique<TwoLevelPredictor>(
                                 paperTwoLevel(
                                     3, TableSpec::setAssoc(size, ways)));
                         }});
    }
    return cells;
}

/** Best-of-@p reps group time of one fused simulateMany() over
 *  @p cells (fresh predictors bound to a SweepKernel each rep);
 *  @p traversal receives the last rep's telemetry. */
double
bestFusedSeconds(const std::vector<MixCell> &cells, unsigned reps,
                 ibp::TraversalStats &traversal)
{
    using namespace ibp;
    double best = 0.0;
    for (unsigned rep = 0; rep < reps; ++rep) {
        std::vector<std::unique_ptr<IndirectPredictor>> predictors;
        std::vector<IndirectPredictor *> raw;
        for (const MixCell &cell : cells) {
            predictors.push_back(cell.make());
            raw.push_back(predictors.back().get());
        }
        SweepKernel kernel;
        for (IndirectPredictor *predictor : raw)
            kernel.tryJoin(*predictor);
        kernel.finalize();
        SimOptions options;
        options.kernel = &kernel;
        traversal = TraversalStats{};
        options.traversal = &traversal;
        const double seconds =
            simulateMany(raw, benchTrace(), options).front().groupSeconds;
        if (rep == 0 || seconds < best)
            best = seconds;
    }
    return best;
}

/**
 * Best-of-@p reps nanoseconds per column-record of the lane engine's
 * score pass: @p pairs columns over random member pairs of 52
 * machines (one fig17 benchmark's distinct machines), each reduced by
 * simd::scorePairStream() from its members' word streams over one
 * lane block (kLaneBlockRecords records) of random outcome words
 * with ranks 0..3.
 */
double
pairScoringNs(std::size_t pairs, unsigned reps)
{
    using namespace ibp;
    constexpr std::size_t kMachines = 52;
    constexpr std::size_t kRecords = kLaneBlockRecords;
    constexpr unsigned kPasses = 64;
    Rng rng(0x5c0de + pairs);
    std::vector<std::uint32_t> words(kMachines * kRecords);
    for (std::uint32_t &word : words) {
        const auto rank = static_cast<std::uint32_t>(rng.nextBelow(4));
        word = rank == 0 ? 0
                         : rank << kOutcomeRankShift | kOutcomeValid |
                               (rng.nextBool(0.5) ? kOutcomeCorrect : 0);
    }
    std::vector<const std::uint32_t *> first(pairs);
    std::vector<const std::uint32_t *> second(pairs);
    for (std::size_t i = 0; i < pairs; ++i) {
        first[i] = &words[rng.nextBelow(kMachines) * kRecords];
        second[i] = &words[rng.nextBelow(kMachines) * kRecords];
    }
    std::vector<std::uint64_t> misses(pairs, 0);
    std::vector<std::uint64_t> no_prediction(pairs, 0);

    double best = 0.0;
    for (unsigned rep = 0; rep < reps; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        for (unsigned pass = 0; pass < kPasses; ++pass) {
            for (std::size_t i = 0; i < pairs; ++i) {
                simd::scorePairStream(first[i], second[i], kRecords,
                                      misses[i], no_prediction[i]);
            }
        }
        const double seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        if (rep == 0 || seconds < best)
            best = seconds;
    }
    // Consume the counters so the reduction cannot be elided.
    volatile std::uint64_t sink = 0;
    for (std::size_t i = 0; i < pairs; ++i)
        sink = sink + misses[i] + no_prediction[i];
    return best * 1e9 / static_cast<double>(kPasses * kRecords * pairs);
}

} // namespace

const ibp::ExperimentDef &
microThroughputExperiment()
{
    using namespace ibp;
    static const ibp::ExperimentDef &def =
        ibp::registerExperiment({
        "BENCH_micro",
        "Simulation throughput: flat tables vs reference",
        [](ExperimentContext &context) {
            const unsigned reps = context.quick() ? 2 : 3;
            const TableImpl initial = tableImplementation();
            const auto mix = fig18Mix();

            ResultTable table(
                "Whole-cell throughput on porky-100k (Mbranches/s)",
                "predictor");
            table.addColumn("flat");
            table.addColumn("reference");
            table.addColumn("speedup");

            double flat_seconds = 0.0;
            double reference_seconds = 0.0;
            for (const MixCell &cell : mix) {
                setTableImplementation(TableImpl::Reference);
                const SimResult reference = bestOf(cell, reps);
                setTableImplementation(TableImpl::Flat);
                const SimResult flat = bestOf(cell, reps);

                const double flat_rate =
                    static_cast<double>(flat.branches) /
                    flat.seconds / 1e6;
                const double reference_rate =
                    static_cast<double>(reference.branches) /
                    reference.seconds / 1e6;
                table.set(cell.label, "flat", flat_rate);
                table.set(cell.label, "reference", reference_rate);
                table.set(cell.label, "speedup",
                          flat_rate / reference_rate);

                // Only the flat side lands in the telemetry: the
                // artifact's branches_per_second is then the flat
                // aggregate, which the CI throughput floor gates.
                CellMetrics recorded;
                recorded.column = cell.label;
                recorded.benchmark = "porky-100k";
                recorded.branches = flat.branches;
                recorded.seconds = flat.seconds;
                recorded.groupSeconds = flat.groupSeconds;
                recorded.tableOccupancy = flat.tableOccupancy;
                recorded.tableCapacity = flat.tableCapacity;
                context.metrics().recordCell(recorded);
                flat_seconds += flat.seconds;
                reference_seconds += reference.seconds;
            }
            context.metrics().recordRunWindow(flat_seconds);
            setTableImplementation(initial);

            context.emit(table);
            context.note(
                "Aggregate flat speedup over the mix: " +
                formatFixed(reference_seconds /
                                std::max(flat_seconds, 1e-12),
                            2) +
                "x (best-of-" + std::to_string(reps) +
                " per cell, cold predictor per rep).");

            // ---------------------------------------------------
            // The fig17 hybrid-grid mix, three engines: per-column
            // (13 solo trace traversals), single-pass (one
            // traversal, every predictor keeping private history -
            // the engine sweeps used before the fused kernel), and
            // fused (one traversal through a SweepKernel: shared
            // histories, deduplicated key builds, p1 components
            // folded onto one lane machine). Counters are
            // bit-identical across all three
            // (tests/sim/fused_kernel_test.cc); only the time
            // differs, and fused-over-single-pass is the speedup
            // SuiteRunner's phase-1 engine banks on real sweeps.
            setTableImplementation(TableImpl::Flat);
            const auto row = fig17Row();
            double solo_seconds = 0.0;
            std::uint64_t row_branches = 0;
            for (const MixCell &cell : row) {
                const SimResult solo = bestOf(cell, reps);
                solo_seconds += solo.seconds;
                row_branches += solo.branches;
            }
            double single_pass_seconds = 0.0;
            double fused_seconds = 0.0;
            unsigned folded = 0;
            for (unsigned rep = 0; rep < reps; ++rep) {
                for (const bool fuse : {false, true}) {
                    std::vector<std::unique_ptr<IndirectPredictor>>
                        predictors;
                    std::vector<IndirectPredictor *> raw;
                    for (const MixCell &cell : row) {
                        predictors.push_back(cell.make());
                        raw.push_back(predictors.back().get());
                    }
                    SweepKernel kernel;
                    SimOptions options;
                    TraversalStats traversal;
                    if (fuse) {
                        for (IndirectPredictor *predictor : raw)
                            kernel.tryJoin(*predictor);
                        kernel.finalize();
                        options.kernel = &kernel;
                        options.traversal = &traversal;
                    }
                    const std::vector<SimResult> results =
                        simulateMany(raw, benchTrace(), options);
                    if (fuse)
                        folded = traversal.foldedMembers;
                    const double seconds =
                        results.front().groupSeconds;
                    double &best =
                        fuse ? fused_seconds : single_pass_seconds;
                    if (rep == 0 || seconds < best)
                        best = seconds;
                }
            }
            setTableImplementation(initial);

            ResultTable fig17_table(
                "Figure-17 row sweep (p1=3, 13 columns) on "
                "porky-100k: per-column vs single-pass vs fused",
                "engine");
            fig17_table.addColumn("seconds");
            fig17_table.addColumn("Mbranches/s");
            fig17_table.addColumn("speedup");
            const auto rate = [row_branches](double seconds) {
                return static_cast<double>(row_branches) /
                       std::max(seconds, 1e-12) / 1e6;
            };
            fig17_table.set("per-column", "seconds", solo_seconds);
            fig17_table.set("per-column", "Mbranches/s",
                            rate(solo_seconds));
            fig17_table.set("per-column", "speedup",
                            single_pass_seconds /
                                std::max(solo_seconds, 1e-12));
            fig17_table.set("single-pass", "seconds",
                            single_pass_seconds);
            fig17_table.set("single-pass", "Mbranches/s",
                            rate(single_pass_seconds));
            fig17_table.set("single-pass", "speedup", 1.0);
            fig17_table.set("fused", "seconds", fused_seconds);
            fig17_table.set("fused", "Mbranches/s",
                            rate(fused_seconds));
            fig17_table.set("fused", "speedup",
                            single_pass_seconds /
                                std::max(fused_seconds, 1e-12));
            context.emit(fig17_table);
            context.note(
                "Fused sweep-kernel speedup on the fig17 row mix: " +
                formatFixed(single_pass_seconds /
                                std::max(fused_seconds, 1e-12),
                            2) +
                "x aggregate throughput vs the single-pass engine "
                "(shared first-level histories, deduplicated key "
                "builds, " +
                std::to_string(folded) +
                " folded two-level members), " +
                formatFixed(solo_seconds /
                                std::max(fused_seconds, 1e-12),
                            2) +
                "x vs 13 per-column traversals.");

            // ---------------------------------------------------
            // The fully-associative size sweep: ten solo simulate()
            // runs, each over its own FullyAssocTable, vs one fused
            // traversal where the lane engine answers all ten sizes
            // from one LRU stack depth per record. Counters are
            // bit-identical (tests/sim/fused_kernel_test.cc).
            setTableImplementation(TableImpl::Flat);
            const auto sweep = fullAssocSweep();
            double sweep_solo_seconds = 0.0;
            std::uint64_t sweep_branches = 0;
            for (const MixCell &cell : sweep) {
                const SimResult solo = bestOf(cell, reps);
                sweep_solo_seconds += solo.seconds;
                sweep_branches += solo.branches;
            }
            TraversalStats stack_traversal;
            const double stack_seconds =
                bestFusedSeconds(sweep, reps, stack_traversal);
            setTableImplementation(initial);

            ResultTable stack_table(
                "Fully-associative size sweep (p=3, 64..32K entries) "
                "on porky-100k: 10 solo runs vs one LRU stack",
                "engine");
            stack_table.addColumn("seconds");
            stack_table.addColumn("Mbranches/s");
            stack_table.addColumn("speedup");
            const auto sweep_rate = [sweep_branches](double seconds) {
                return static_cast<double>(sweep_branches) /
                       std::max(seconds, 1e-12) / 1e6;
            };
            stack_table.set("solo", "seconds", sweep_solo_seconds);
            stack_table.set("solo", "Mbranches/s",
                            sweep_rate(sweep_solo_seconds));
            stack_table.set("solo", "speedup", 1.0);
            stack_table.set("lru-stack", "seconds", stack_seconds);
            stack_table.set("lru-stack", "Mbranches/s",
                            sweep_rate(stack_seconds));
            stack_table.set("lru-stack", "speedup",
                            sweep_solo_seconds /
                                std::max(stack_seconds, 1e-12));
            context.emit(stack_table);
            context.note(
                "LRU stack speedup on the fully-associative size "
                "sweep: " +
                formatFixed(sweep_solo_seconds /
                                std::max(stack_seconds, 1e-12),
                            2) +
                "x vs 10 solo traversals (" +
                std::to_string(stack_traversal.lruStacks) +
                " stack of " +
                std::to_string(stack_traversal.stackedMembers) +
                " members).");

            // ---------------------------------------------------
            // The set-associative size sweep: twenty solo simulate()
            // runs; two fused traversals, one per associativity, in
            // which no machine has a stack-mate (each drives its own
            // SetAssocTable); and one fused traversal of all twenty,
            // where 2-way N and 4-way 2N share a set stack. Counters
            // are bit-identical (tests/sim/fused_kernel_test.cc).
            setTableImplementation(TableImpl::Flat);
            const auto two_way = setAssocSweep(2);
            const auto four_way = setAssocSweep(4);
            std::vector<MixCell> both = two_way;
            both.insert(both.end(), four_way.begin(), four_way.end());
            double set_solo_seconds = 0.0;
            std::uint64_t set_branches = 0;
            for (const MixCell &cell : both) {
                const SimResult solo = bestOf(cell, reps);
                set_solo_seconds += solo.seconds;
                set_branches += solo.branches;
            }
            TraversalStats set_traversal;
            const double tables_seconds =
                bestFusedSeconds(two_way, reps, set_traversal) +
                bestFusedSeconds(four_way, reps, set_traversal);
            const double set_stack_seconds =
                bestFusedSeconds(both, reps, set_traversal);
            setTableImplementation(initial);

            ResultTable set_table(
                "Set-associative size sweep (p=3, 2-way and 4-way, "
                "64..32K entries) on porky-100k: 20 solo runs vs one "
                "fused run per associativity vs set stacks",
                "engine");
            set_table.addColumn("seconds");
            set_table.addColumn("Mbranches/s");
            set_table.addColumn("speedup");
            for (const auto &[row, seconds] :
                 {std::pair<const char *, double>{"solo", set_solo_seconds},
                  {"tables", tables_seconds},
                  {"set-stacks", set_stack_seconds}}) {
                set_table.set(row, "seconds", seconds);
                set_table.set(row, "Mbranches/s",
                              static_cast<double>(set_branches) /
                                  std::max(seconds, 1e-12) / 1e6);
                set_table.set(row, "speedup",
                              set_solo_seconds / std::max(seconds, 1e-12));
            }
            context.emit(set_table);
            context.note(
                "Set stack speedup on the set-associative size sweep: " +
                formatFixed(tables_seconds /
                                std::max(set_stack_seconds, 1e-12),
                            2) +
                "x vs the same tables fused without stacks (" +
                std::to_string(set_traversal.setStacks) + " stacks of " +
                std::to_string(set_traversal.setStackedMembers) +
                " members, " +
                std::to_string(set_traversal.laneMachines -
                               set_traversal.setStackedMembers) +
                " lone tables).");

            // ---------------------------------------------------
            // The lane engine's score pass: pair columns reduced from
            // their members' word streams, at a fig17 row (13
            // columns), one component size's grid (169) and the full
            // grid of one benchmark (338).
            ResultTable scoring_table(
                "Lane column scoring (ns per column-record)", "columns");
            scoring_table.addColumn("stream");
            for (const std::size_t pairs : {13u, 169u, 338u}) {
                scoring_table.set(std::to_string(pairs) + " pairs",
                                  "stream", pairScoringNs(pairs, reps));
            }
            context.emit(scoring_table);

            // ---------------------------------------------------
            // The grid sharder's cell-claim layer (docs/SERVICE.md):
            // one-cell claim round-trips (open the store's lock file,
            // take a byte-range lock, close), durable entry stores
            // (tmp+fsync+rename), warm loads, and contended-claim
            // probes on a throwaway store. These rates bound the
            // per-cell coordination overhead a sharded fan-out pays
            // on top of the simulation itself. CI's micro tolerances
            // gate the table's structure, not the exact rates (pure
            // filesystem noise on shared runners).
            char claim_dir[] = "/tmp/ibpmicroclaimXXXXXX";
            if (::mkdtemp(claim_dir) != nullptr) {
                const ResultStore store{std::string(claim_dir)};
                const auto kops = [](std::size_t ops,
                                     double seconds) {
                    return static_cast<double>(ops) /
                           std::max(seconds, 1e-12) / 1e3;
                };
                const auto since =
                    [](std::chrono::steady_clock::time_point then) {
                        return std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() -
                                   then)
                            .count();
                    };
                ResultTable claim_table(
                    "Cell-claim layer on a throwaway store (kops/s)",
                    "operation");
                claim_table.addColumn("kops/s");

                const std::size_t claim_ops = 2048;
                auto t0 = std::chrono::steady_clock::now();
                for (std::size_t i = 0; i < claim_ops; ++i) {
                    CellClaim claim = store.tryClaim("bench-claim");
                    claim.release();
                }
                claim_table.set("claim-roundtrip", "kops/s",
                                kops(claim_ops, since(t0)));

                // A cell shaped like a real one: its wall times and
                // miss rate are not integers, so store-put and
                // load-hit pay for writing and re-reading them.
                const std::size_t store_ops = 128;
                StoredResult cell;
                cell.benchmark = "porky-100k";
                cell.predictor = "bench";
                cell.branches = 100000;
                cell.misses = 12345;
                cell.noPrediction = 678;
                cell.tableOccupancy = 1000;
                cell.tableCapacity = 1024;
                cell.seconds = 0.0004217 / 3.0;
                cell.groupSeconds = 0.0004217;
                cell.sharedTraversal = true;
                cell.missPercent = 100.0 * 12345 / 100000.0;
                t0 = std::chrono::steady_clock::now();
                for (std::size_t i = 0; i < store_ops; ++i) {
                    (void)store.store(
                        "bench-cell-" + std::to_string(i), cell);
                }
                claim_table.set("store-put", "kops/s",
                                kops(store_ops, since(t0)));

                std::size_t hits = 0;
                t0 = std::chrono::steady_clock::now();
                for (std::size_t i = 0; i < store_ops; ++i) {
                    hits += store
                                .load("bench-cell-" +
                                      std::to_string(i))
                                    .status ==
                            ResultStore::LoadStatus::Hit;
                }
                claim_table.set("load-hit", "kops/s",
                                kops(store_ops, since(t0)));

                CellClaim held = store.tryClaim("bench-contended");
                t0 = std::chrono::steady_clock::now();
                for (std::size_t i = 0; i < claim_ops; ++i) {
                    const CellClaim probe =
                        store.tryClaim("bench-contended");
                    (void)probe;
                }
                claim_table.set("busy-probe", "kops/s",
                                kops(claim_ops, since(t0)));
                held.release();

                // Artifact serialisation: a quick fig17-sized
                // artifact (7 grids of 13 benchmarks x 7 columns, 637
                // cells, each also in the cell telemetry) through
                // toJson(), a pretty dump and a parse.
                RunArtifact artifact;
                const std::vector<std::string> &names =
                    benchmarkGroups().avg;
                for (unsigned grid = 0; grid < 7; ++grid) {
                    ResultTable table("grid " + std::to_string(grid),
                                      "benchmark");
                    for (unsigned col = 0; col < 7; ++col)
                        table.addColumn("column " + std::to_string(col));
                    for (const std::string &name : names) {
                        for (unsigned col = 0; col < 7; ++col) {
                            const std::string label =
                                "column " + std::to_string(col);
                            const std::uint64_t misses =
                                (artifact.metrics.cellCount() * 7919) %
                                    99991 +
                                1;
                            table.set(name, label,
                                      100.0 * misses / 100003.0);
                            CellMetrics metrics;
                            metrics.column = label;
                            metrics.benchmark = name;
                            metrics.branches = 100003;
                            metrics.seconds = misses * 1.7e-9;
                            metrics.groupSeconds = misses * 1.19e-8;
                            metrics.secondsSynthetic = true;
                            metrics.tableOccupancy = misses % 1024;
                            metrics.tableCapacity = 1024;
                            artifact.metrics.recordCell(metrics);
                        }
                    }
                    artifact.tables.push_back(std::move(table));
                }
                const std::size_t artifact_ops = 16;
                std::size_t parsed_tables = 0;
                t0 = std::chrono::steady_clock::now();
                for (std::size_t i = 0; i < artifact_ops; ++i) {
                    parsed_tables +=
                        Json::parse(artifact.toJson().dump(2))
                            .at("tables")
                            .size();
                }
                claim_table.set("artifact-json", "kops/s",
                                kops(artifact_ops, since(t0)));

                context.emit(claim_table);
                context.note(
                    "Cell-claim coordination: " +
                    std::to_string(hits) + "/" +
                    std::to_string(store_ops) +
                    " warm loads hit; claim round-trip and busy "
                    "probe open the store's lock file and take a "
                    "byte-range lock, store-put pays the durable "
                    "tmp+fsync+rename path; artifact-json "
                    "serialises and re-parses a " +
                    std::to_string(artifact.metrics.cellCount()) +
                    "-cell artifact (" +
                    std::to_string(parsed_tables / artifact_ops) +
                    " tables).");
                std::error_code ec;
                std::filesystem::remove_all(claim_dir, ec);
            }
        }});
    return def;
}
