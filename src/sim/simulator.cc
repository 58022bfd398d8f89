#include "sim/simulator.hh"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <type_traits>

#include "core/hybrid.hh"
#include "core/lru_stack.hh"
#include "core/set_assoc_table.hh"
#include "core/set_stack.hh"
#include "core/simd.hh"
#include "core/sweep_kernel.hh"
#include "core/tagless_table.hh"
#include "core/two_level.hh"
#include "robust/error.hh"
#include "trace/trace_block.hh"
#include "util/logging.hh"

namespace ibp {

namespace {

/** Count the miss, if any, of one scored branch whose prediction
 *  was @p prediction (branches are counted once per traversal). */
inline void
countMiss(SimResult &result, const Prediction &prediction, Addr target)
{
    if (!prediction.correctFor(target)) {
        ++result.misses;
        if (!prediction.valid)
            ++result.noPrediction;
    }
}

[[noreturn]] void
throwCancelled(const Trace &trace)
{
    throw RunException(RunError::timeout(
        "simulation of '" + trace.name() + "' cancelled by watchdog"));
}

/** Records ahead whose table storage a machine pass prefetches. */
constexpr std::size_t kMachinePrefetch = 4;

/**
 * The lane engine's execution plan for a fused traversal.
 *
 * The predictors that joined the traversal's sweep kernel - plain
 * TwoLevelPredictor columns and hybrids (confidence or selector
 * metaprediction) of two-level components - are *lane columns*: the
 * plan reads each one's members and key variants from the kernel
 * (SweepKernel::column()), and the kernel's variants are the plan's
 * key slots. The rest are *generic* columns that run their own
 * predict/update pairs.
 *
 * A *machine* is one distinct TwoLevelConfig among the lane columns'
 * two-level members, found by the same linear equality search
 * planChunks() uses. Equal configurations are identical state
 * machines fed the identical record stream, so the first member with
 * a configuration drives the one table and every later equal member
 * is *folded* onto it: it never probes, trains or even allocates a
 * table (TwoLevelPredictor allocates on first use). A fig17 row's
 * dozen hybrids sharing a p1 component thus probe that component once
 * per record.
 *
 * Machines that are stack-mates (stackMates(): equal but for the
 * table, both fully associative or both set-associative with equal
 * set counts) run as one structure instead of one table each: an
 * LruStack (core/lru_stack.hh) for fully-associative mates, a
 * SetStack (core/set_stack.hh) for set-associative ones. One lookup
 * answers every member. A stack forms only from two or more machines
 * (a lone machine drives its own table: a one-member LruStack
 * measured slower than its FullyAssocTable) whose owners all pinned
 * the flat table implementation, so a run on the reference tables -
 * the tests' oracle and the benchmark's reference check - still
 * drives the node-based tables. Table machines keep ids 0..T-1 in
 * plan order and stack members follow, each stack's members
 * contiguous and ascending in size; stack members never allocate a
 * table of their own.
 *
 * The traversal runs machine-major, one block of up to
 * kLaneBlockRecords indirect records at a time, in three passes:
 *
 *  1. The record pass walks the trace. For each indirect record it
 *     resolves every kernel variant's key into that slot's key
 *     column (SweepKernel::laneKeys()), keeps the pc and target, runs
 *     the generic columns' predict/update, and commits the shared
 *     histories.
 *  2. The machine pass runs each table machine, then each stack,
 *     over the whole block in one loop: probe, outcome word
 *     (twoLevelOutcome()), access and the two-level update rule. A
 *     machine writes its words contiguously (words[m *
 *     kLaneBlockRecords + r]; a stack one stream per member).
 *  3. The score pass reduces the words into the columns' 64-bit
 *     totals over the block's counted records, which are a suffix of
 *     the block (the warm-up is a prefix of the trace). A column of
 *     one or two members (a plain column or a two-component
 *     confidence hybrid) is a *pair*, reduced from its members' two
 *     streams by simd::scorePairStream(). Wider confidence hybrids
 *     take the highest-ranked word per record; selector hybrids read
 *     the words' valid and correct bits and train their selection
 *     tables on every record, warm-up included.
 *
 * The order is bit-identical to running every column record by
 * record. Machines, stacks, selectors and generic columns share no
 * state; keys depend only on the shared histories, which the record
 * pass advances in trace order after resolving each record's keys;
 * and each table still sees its probe and access of one record back
 * to back, so SetAssocTable's way memo and the stacks' memos hold.
 */
struct LanePlan
{
    /** A lane column over member machines, with its 64-bit totals. */
    struct Column
    {
        std::size_t result;    ///< index into the results array
        std::uint32_t first;   ///< offset into memberPool
        std::uint32_t count;   ///< member machines (1 for plain)
        std::uint64_t misses = 0;
        std::uint64_t noPrediction = 0;

        /** Count one scored branch whose answer was @p word. */
        void
        score(std::uint32_t word)
        {
            misses += outcomeCorrect(word) ? 0 : 1;
            noPrediction += outcomeValid(word) ? 0 : 1;
        }
    };

    /** A selector-metaprediction hybrid: its two members' outcome
     *  words feed the hybrid's own selection table. */
    struct SelectorColumn
    {
        Column column;
        HybridPredictor *hybrid;
    };

    /**
     * One machine's flattened execution recipe: the lane engine
     * drives the owner's table directly (probe, access plus the
     * two-level update rule) with the keys of the machine's slot.
     * This removes the whole predict()/update() call stack from the
     * machine pass.
     */
    struct Machine
    {
        TargetTable *table;        ///< the owner's second-level table
        /** table when it is a SetAssocTable (the sweep workhorse) or
         *  a TaglessTable, else nullptr: both are final with inline
         *  probe/access/prefetch, so these pointers devirtualize the
         *  machine pass. */
        SetAssocTable *setAssoc;
        TaglessTable *tagless;
        std::uint32_t keySlot;     ///< index into keySlots
        bool hysteresis;           ///< the 2bc update rule flag
    };

    /** Stack-mate machines run as one Structure (an LruStack or a
     *  SetStack): member k is machine firstMachine + k. */
    template <typename Structure>
    struct Stack
    {
        Structure structure;
        std::uint32_t firstMachine;
        std::uint32_t keySlot;
        bool hysteresis;
    };

    /** One per machine: the member that owns it, and its key slot. */
    std::vector<SweepKernel::Member> owners;
    /** Table machines' recipes, parallel to owners' first T. */
    std::vector<Machine> machines;
    /** The other owners: fully-associative stacks, set stacks. */
    std::vector<Stack<LruStack>> lruStacks;
    std::vector<Stack<SetStack>> setStacks;
    std::vector<std::uint16_t> memberPool;     ///< column members
    /** Confidence and plain columns: the pairs first, then wider. */
    std::vector<Column> columns;
    std::size_t pairCount = 0;
    std::vector<SelectorColumn> selectors;
    std::vector<IndirectPredictor *> generic;  ///< record-at-a-time
    std::vector<std::size_t> genericResult;
    /** Members folded onto an earlier equal machine. */
    std::uint32_t folded = 0;

    /** The block: per key slot a key column, the records' pcs and
     *  targets, and per machine an outcome word stream. */
    std::vector<Key> keys;
    std::vector<Addr> pcs;
    std::vector<Addr> targets;
    std::vector<std::uint32_t> words;

    /**
     * Write a lane column's totals into @p result: its miss counters,
     * and its table occupancy and capacity from its members' machine
     * tables by HybridPredictor's rule: occupancies sum, capacities
     * sum unless any member is unbounded (0), which makes the whole
     * unbounded. A folded member reports its machine's table, which
     * is exactly what its own would hold; a stack member reports what
     * its size's table would hold.
     */
    void
    writeTotals(const Column &column, SimResult &result) const
    {
        result.misses = column.misses;
        result.noPrediction = column.noPrediction;
        bool bounded = true;
        for (std::uint32_t k = 0; k < column.count; ++k) {
            const std::uint32_t m = memberPool[column.first + k];
            std::uint64_t occupancy = 0;
            std::uint64_t capacity = 0;
            if (m < machines.size()) {
                occupancy = machines[m].table->occupancy();
                capacity = machines[m].table->capacity();
            } else if (!stackTotals(lruStacks, m, occupancy, capacity)) {
                stackTotals(setStacks, m, occupancy, capacity);
            }
            result.tableOccupancy += occupancy;
            result.tableCapacity += capacity;
            bounded &= capacity != 0;
        }
        if (!bounded)
            result.tableCapacity = 0;
    }

    /** Set @p occupancy and @p capacity to what stack member @p m's
     *  own table would hold, when one of @p stacks runs it. */
    template <typename Structure>
    static bool
    stackTotals(const std::vector<Stack<Structure>> &stacks,
                std::uint32_t m, std::uint64_t &occupancy,
                std::uint64_t &capacity)
    {
        for (const Stack<Structure> &stack : stacks) {
            const std::uint32_t k = m - stack.firstMachine;
            if (m >= stack.firstMachine && k < stack.structure.members()) {
                occupancy = stack.structure.occupancy(k);
                capacity = stack.structure.capacity(k);
                return true;
            }
        }
        return false;
    }

    /** Members of all of @p stacks. */
    template <typename Structure>
    static std::uint32_t
    stackedMembers(const std::vector<Stack<Structure>> &stacks)
    {
        std::uint32_t members = 0;
        for (const Stack<Structure> &stack : stacks)
            members += static_cast<std::uint32_t>(stack.structure.members());
        return members;
    }
};

/**
 * Reorder @p plan's machines for stacks (see LanePlan): group the
 * flat-table stack-mates (equal but for the table, so they share a
 * key variant too), keep groups of two or more as stacks, renumber
 * the remaining table machines 0..T-1 and every stack's members after
 * them, and return each stack's member count in that order.
 */
std::vector<std::size_t>
formStacks(LanePlan &plan)
{
    std::vector<std::vector<std::uint16_t>> groups;
    for (std::size_t m = 0; m < plan.owners.size(); ++m) {
        const TwoLevelPredictor &owner = *plan.owners[m].machine;
        const TableKind kind = owner.config().table.kind;
        if ((kind != TableKind::FullyAssoc && kind != TableKind::SetAssoc) ||
            owner.tableImpl() != TableImpl::Flat) {
            continue;
        }
        std::size_t g = 0;
        while (g < groups.size() &&
               !stackMates(plan.owners[groups[g][0]].machine->config(),
                           owner.config())) {
            ++g;
        }
        if (g == groups.size())
            groups.emplace_back();
        groups[g].push_back(static_cast<std::uint16_t>(m));
    }
    std::erase_if(groups, [](const auto &group) { return group.size() < 2; });
    if (groups.empty())
        return {};

    std::vector<bool> stacked(plan.owners.size(), false);
    for (const auto &group : groups) {
        for (const std::uint16_t m : group)
            stacked[m] = true;
    }
    std::vector<std::uint16_t> remap(plan.owners.size());
    std::vector<SweepKernel::Member> ordered;
    const auto place = [&](std::uint16_t m) {
        remap[m] = static_cast<std::uint16_t>(ordered.size());
        ordered.push_back(plan.owners[m]);
    };
    for (std::size_t m = 0; m < plan.owners.size(); ++m) {
        if (!stacked[m])
            place(static_cast<std::uint16_t>(m));
    }
    std::vector<std::size_t> stack_sizes;
    for (auto &group : groups) {
        std::sort(group.begin(), group.end(),
                  [&plan](std::uint16_t a, std::uint16_t b) {
                      return plan.owners[a].machine->config().table.entries <
                             plan.owners[b].machine->config().table.entries;
                  });
        for (const std::uint16_t m : group)
            place(m);
        stack_sizes.push_back(group.size());
    }
    for (std::uint16_t &member : plan.memberPool)
        member = remap[member];
    plan.owners = std::move(ordered);
    return stack_sizes;
}

LanePlan
buildLanePlan(std::span<IndirectPredictor *const> predictors,
              const SweepKernel *kernel)
{
    LanePlan plan;
    // The machine a two-level member runs on: the earlier one with an
    // equal configuration (the member folds), else a new one whose
    // table it owns.
    const auto machineOf = [&plan](const SweepKernel::Member &member) {
        for (std::size_t m = 0; m < plan.owners.size(); ++m) {
            if (plan.owners[m].machine->config() == member.machine->config()) {
                ++plan.folded;
                return static_cast<std::uint16_t>(m);
            }
        }
        IBP_ASSERT(plan.owners.size() <= 0xffff,
                   "lane plan exceeds 65536 machines");
        plan.owners.push_back(member);
        return static_cast<std::uint16_t>(plan.owners.size() - 1);
    };

    for (std::size_t i = 0; i < predictors.size(); ++i) {
        const SweepKernel::Column *joined =
            kernel != nullptr ? kernel->column(*predictors[i]) : nullptr;
        if (joined == nullptr) {
            plan.generic.push_back(predictors[i]);
            plan.genericResult.push_back(i);
            continue;
        }
        const LanePlan::Column column{
            i, static_cast<std::uint32_t>(plan.memberPool.size()),
            static_cast<std::uint32_t>(joined->members.size())};
        for (const SweepKernel::Member &member : joined->members)
            plan.memberPool.push_back(machineOf(member));
        if (joined->hybrid != nullptr &&
            joined->hybrid->config().meta == MetaKind::Selector) {
            plan.selectors.push_back({column, joined->hybrid});
        } else {
            plan.columns.push_back(column);
        }
    }
    const std::vector<std::size_t> stack_sizes = formStacks(plan);

    // Pairs first: the score pass reduces them as two dense streams.
    plan.pairCount = static_cast<std::size_t>(
        std::stable_partition(plan.columns.begin(), plan.columns.end(),
                              [](const LanePlan::Column &column) {
                                  return column.count <= 2;
                              }) -
        plan.columns.begin());

    // Resolve the flattened execution recipes. Machines sharing a
    // PatternSpec share a kernel variant and so a key slot: a fig17
    // row resolves each distinct key exactly once per record no
    // matter how many tables consume it.
    std::size_t m = 0;
    const std::size_t table_machines =
        plan.owners.size() -
        std::accumulate(stack_sizes.begin(), stack_sizes.end(),
                        std::size_t{0});
    for (; m < table_machines; ++m) {
        TwoLevelPredictor &owner = *plan.owners[m].machine;
        TargetTable &table = owner.table();
        plan.machines.push_back(
            {&table, dynamic_cast<SetAssocTable *>(&table),
             dynamic_cast<TaglessTable *>(&table), plan.owners[m].variant,
             owner.config().hysteresis});
    }
    for (const std::size_t members : stack_sizes) {
        const TwoLevelConfig &config = plan.owners[m].machine->config();
        const auto first = static_cast<std::uint32_t>(m);
        const std::uint32_t slot = plan.owners[m].variant;
        if (config.table.kind == TableKind::FullyAssoc) {
            std::vector<std::uint64_t> sizes;
            for (std::size_t k = 0; k < members; ++k)
                sizes.push_back(
                    plan.owners[m + k].machine->config().table.entries);
            plan.lruStacks.push_back(
                {LruStack(std::move(sizes), config.entryCounters()), first,
                 slot, config.hysteresis});
        } else {
            std::vector<unsigned> ways;
            for (std::size_t k = 0; k < members; ++k)
                ways.push_back(plan.owners[m + k].machine->config().table.ways);
            plan.setStacks.push_back(
                {SetStack(std::move(ways),
                          config.table.entries / config.table.ways,
                          config.entryCounters()),
                 first, slot, config.hysteresis});
        }
        m += members;
    }
    if (kernel != nullptr)
        plan.keys.resize(kernel->variantCount() * kLaneBlockRecords);
    plan.pcs.resize(kLaneBlockRecords);
    plan.targets.resize(kLaneBlockRecords);
    plan.words.resize(plan.owners.size() * kLaneBlockRecords);
    return plan;
}

/**
 * The machine pass of one table machine over a block's @p count
 * records: probe, outcome word into @p words, access and train, one
 * record at a time, pulling the table storage of the record
 * kMachinePrefetch ahead toward the cache. @p Table is the machine's
 * final table class, whose table work inlines, or TargetTable for the
 * other tables, which run through virtual calls and no prefetch.
 */
template <typename Table>
void
runMachine(Table &table, const Key *keys, const Addr *targets,
           std::uint32_t *words, std::size_t count, bool hysteresis)
{
    for (std::size_t r = 0; r < count; ++r) {
        if constexpr (!std::is_same_v<Table, TargetTable>) {
            if (r + kMachinePrefetch < count)
                table.prefetch(keys[r + kMachinePrefetch]);
        }
        words[r] = twoLevelOutcome(table.probe(keys[r]), targets[r]);
        bool replaced = false;
        TableEntry &entry = table.access(keys[r], replaced);
        trainTwoLevelEntry(entry, replaced, targets[r], hysteresis);
    }
}

/** runMachine() for a stack: member k's words go to
 *  words[k * kLaneBlockRecords + r]. */
template <typename Structure>
void
runStack(LanePlan::Stack<Structure> &stack, const Key *keys,
         const Addr *targets, std::uint32_t *words, std::size_t count)
{
    Structure &structure = stack.structure;
    const std::size_t members = structure.members();
    for (std::size_t r = 0; r < count; ++r) {
        if constexpr (std::is_same_v<Structure, SetStack>) {
            if (r + kMachinePrefetch < count)
                structure.prefetch(keys[r + kMachinePrefetch]);
        }
        std::uint32_t resident = 0;
        const TableEntry *row = structure.probe(keys[r], resident);
        for (std::size_t k = 0; k < members; ++k) {
            words[k * kLaneBlockRecords + r] = twoLevelOutcome(
                k < resident ? nullptr : row + k, targets[r]);
        }
        TableEntry *entries = structure.access(keys[r]);
        for (std::size_t k = 0; k < members; ++k) {
            trainTwoLevelEntry(entries[k], k < resident, targets[r],
                               stack.hysteresis);
        }
    }
}

/**
 * The machine and score passes (see LanePlan) over a block of
 * @p count records whose key columns, pcs and targets the record pass
 * filled; records [@p firstCounted, @p count) are past the warm-up.
 */
void
runLaneBlock(LanePlan &plan, std::size_t count, std::size_t firstCounted)
{
    const Key *const keys = plan.keys.data();
    const Addr *const targets = plan.targets.data();
    std::uint32_t *const words = plan.words.data();
    const auto stream = [words](std::uint32_t machine) {
        return words +
               static_cast<std::size_t>(machine) * kLaneBlockRecords;
    };

    for (std::uint32_t m = 0; m < plan.machines.size(); ++m) {
        const LanePlan::Machine &machine = plan.machines[m];
        const Key *slot_keys = keys + machine.keySlot * kLaneBlockRecords;
        if (machine.setAssoc != nullptr) {
            runMachine(*machine.setAssoc, slot_keys, targets, stream(m),
                       count, machine.hysteresis);
        } else if (machine.tagless != nullptr) {
            runMachine(*machine.tagless, slot_keys, targets, stream(m),
                       count, machine.hysteresis);
        } else {
            runMachine(*machine.table, slot_keys, targets, stream(m),
                       count, machine.hysteresis);
        }
    }
    for (LanePlan::Stack<LruStack> &stack : plan.lruStacks) {
        runStack(stack, keys + stack.keySlot * kLaneBlockRecords, targets,
                 stream(stack.firstMachine), count);
    }
    for (LanePlan::Stack<SetStack> &stack : plan.setStacks) {
        runStack(stack, keys + stack.keySlot * kLaneBlockRecords, targets,
                 stream(stack.firstMachine), count);
    }

    const std::uint16_t *const members = plan.memberPool.data();
    for (std::size_t c = 0; c < plan.pairCount; ++c) {
        LanePlan::Column &column = plan.columns[c];
        const std::uint16_t *member = members + column.first;
        simd::scorePairStream(stream(member[0]) + firstCounted,
                              stream(member[column.count - 1]) + firstCounted,
                              count - firstCounted, column.misses,
                              column.noPrediction);
    }
    for (std::size_t c = plan.pairCount; c < plan.columns.size(); ++c) {
        LanePlan::Column &column = plan.columns[c];
        const std::uint16_t *member = members + column.first;
        for (std::size_t r = firstCounted; r < count; ++r) {
            std::uint32_t best = stream(member[0])[r];
            for (std::uint32_t k = 1; k < column.count; ++k) {
                const std::uint32_t word = stream(member[k])[r];
                if (outcomeRank(word) > outcomeRank(best))
                    best = word;
            }
            column.score(best);
        }
    }
    // Selector hybrids choose (when counted) and train their
    // selection tables on every record, warm-up included.
    const Addr *const pcs = plan.pcs.data();
    for (LanePlan::SelectorColumn &selector : plan.selectors) {
        const std::uint16_t *member = members + selector.column.first;
        const std::uint32_t *first = stream(member[0]);
        const std::uint32_t *second = stream(member[1]);
        for (std::size_t r = 0; r < count; ++r) {
            if (r >= firstCounted) {
                const int chosen = selector.hybrid->selectorChoice(
                    pcs[r], outcomeValid(first[r]),
                    outcomeValid(second[r]));
                selector.column.score(
                    chosen < 0 ? 0 : (chosen == 0 ? first[r] : second[r]));
            }
            selector.hybrid->trainSelector(pcs[r], outcomeCorrect(first[r]),
                                           outcomeCorrect(second[r]));
        }
    }
}

} // namespace

SimResult
simulate(IndirectPredictor &predictor, const Trace &trace,
         const SimOptions &options, SiteMissStats *site_stats)
{
    SimResult result;
    result.benchmark = trace.name();
    result.predictor = predictor.name();

    if (site_stats != nullptr && trace.siteCountHint() != 0)
        site_stats->sites.reserve(trace.siteCountHint());

    // Two clock reads bracket the whole loop; the per-branch path
    // stays untouched so telemetry cannot skew throughput.
    const auto start = std::chrono::steady_clock::now();

    // Hoisted out of the loop so the iteration works on registers:
    // the cancel token pointer never changes mid-run, and the
    // compiler cannot prove that through the by-reference options
    // struct on its own. The trace's columns are read sequentially,
    // one BranchRecord by value per step.
    const CancelToken *const cancel = options.cancel;

    std::uint64_t seen = 0;
    std::size_t i = 0;
    for (const BranchRecord record : trace) {
        // One increment-and-mask per record keeps the cancellation
        // poll off the hot path's critical work; 1K records is a
        // few microseconds, so a deadline overrun is caught fast
        // even on the small traces of quick runs.
        if ((++i & 0x3ffu) == 0 && cancel && cancel->cancelled())
            throwCancelled(trace);

        if (record.kind == BranchKind::Conditional) {
            predictor.observeConditional(record.pc, record.taken,
                                         record.target);
            continue;
        }
        if (!record.isPredictedIndirect())
            continue; // returns are handled by a return-address stack

        ++seen;
        const Prediction prediction = predictor.predict(record.pc);
        const bool counted = seen > options.warmupBranches;
        if (counted) {
            const bool correct = prediction.correctFor(record.target);
            ++result.branches;
            if (!correct) {
                ++result.misses;
                if (!prediction.valid)
                    ++result.noPrediction;
            }
            if (site_stats) {
                bool inserted = false;
                SiteMissStats::SiteCounts &counts =
                    site_stats->sites.findOrInsert(record.pc,
                                                   inserted);
                ++counts.executions;
                if (!correct)
                    ++counts.misses;
            }
        }
        predictor.update(record.pc, record.target);
    }

    result.tableOccupancy = predictor.tableOccupancy();
    result.tableCapacity = predictor.tableCapacity();
    result.seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    result.groupSeconds = result.seconds;
    return result;
}

std::vector<SimResult>
simulateMany(std::span<IndirectPredictor *const> predictors,
             const Trace &trace, const SimOptions &options)
{
    std::vector<SimResult> results(predictors.size());
    if (predictors.empty())
        return results;
    for (std::size_t i = 0; i < predictors.size(); ++i) {
        IBP_ASSERT(predictors[i] != nullptr,
                   "simulateMany: null predictor at index %zu", i);
        results[i].benchmark = trace.name();
        results[i].predictor = predictors[i]->name();
    }

    const auto start = std::chrono::steady_clock::now();

    const CancelToken *const cancel = options.cancel;
    SweepKernel *const kernel = options.kernel;

    // Partition the columns between the batched lane engine and the
    // generic path (see LanePlan), and decide whether conditional
    // records matter to anyone: lane columns fold conditional targets
    // in through the kernel's groups, so when no generic column
    // consumes them either, the block classifier drops them without
    // ever dispatching a record.
    LanePlan plan = buildLanePlan(predictors, kernel);
    bool need_conditionals =
        kernel != nullptr && kernel->hasConditionalGroups();
    for (IndirectPredictor *predictor : plan.generic)
        need_conditionals |= predictor->consumesConditionals();

    Key *const keys = plan.keys.data();
    Addr *const pcs = plan.pcs.data();
    Addr *const targets = plan.targets.data();

    if (options.traversal != nullptr) {
        options.traversal->laneColumns = static_cast<std::uint32_t>(
            plan.columns.size() + plan.selectors.size());
        options.traversal->genericColumns =
            static_cast<std::uint32_t>(plan.generic.size());
        options.traversal->laneMachines =
            static_cast<std::uint32_t>(plan.owners.size());
        options.traversal->foldedMembers = plan.folded;
        options.traversal->lruStacks =
            static_cast<std::uint32_t>(plan.lruStacks.size());
        options.traversal->stackedMembers =
            LanePlan::stackedMembers(plan.lruStacks);
        options.traversal->setStacks =
            static_cast<std::uint32_t>(plan.setStacks.size());
        options.traversal->setStackedMembers =
            LanePlan::stackedMembers(plan.setStacks);
    }

    // The trace is consumed in cache-resident slices of its columns;
    // the classifier turns each block into the index list of records
    // anyone cares about. Every predictor still sees exactly the
    // sequence simulate() would have fed it, so the counters must
    // match it bit for bit.
    TraceBlockCursor cursor(trace);
    std::vector<std::uint32_t> selected(kTraceBlockRecords);
    std::uint64_t seen = 0;
    std::uint64_t polled = 0;
    // Indirect records in the lane block; its first is record
    // seen - filled + 1 of the trace's indirect records.
    std::size_t filled = 0;
    const auto run_lane_block = [&]() {
        const std::uint64_t before = seen - filled;
        const std::uint64_t warmup = options.warmupBranches;
        const std::size_t first_counted =
            warmup > before
                ? static_cast<std::size_t>(
                      std::min<std::uint64_t>(filled, warmup - before))
                : 0;
        runLaneBlock(plan, filled, first_counted);
        filled = 0;
    };
    TraceBlock block;
    while (cursor.next(block)) {
        if (cancel && cancel->cancelled())
            throwCancelled(trace);
        const std::size_t selected_count = simd::classifyMeta(
            block.meta, block.count, 0, need_conditionals,
            selected.data());
        if (options.traversal != nullptr) {
            ++options.traversal->columnarBlocks;
            options.traversal->skippedRecords +=
                block.count - selected_count;
        }

        for (std::size_t s = 0; s < selected_count; ++s) {
            if ((++polled & 0x3ffu) == 0 && cancel &&
                cancel->cancelled()) {
                throwCancelled(trace);
            }
            const std::uint32_t index = selected[s];
            const Addr pc = block.pc[index];
            const Addr target = block.target[index];
            const std::uint8_t meta = block.meta[index];

            if (branchMetaKind(meta) == BranchKind::Conditional) {
                // Lane columns' histories live in the kernel, so only
                // generic columns need the record itself.
                const bool taken = branchMetaTaken(meta);
                for (IndirectPredictor *predictor : plan.generic)
                    predictor->observeConditional(pc, taken, target);
                if (kernel != nullptr)
                    kernel->observeConditional(pc, taken, target);
                continue;
            }

            ++seen;
            const bool counted = seen > options.warmupBranches;

            // The record pass: resolve each distinct key once
            // (incremental variants collapse this to an address mix)
            // into its slot's key column.
            pcs[filled] = pc;
            targets[filled] = target;
            if (kernel != nullptr)
                kernel->laneKeys(pc, keys + filled, kLaneBlockRecords);

            // Generic columns run their usual interleaved
            // predict/update.
            for (std::size_t g = 0; g < plan.generic.size(); ++g) {
                IndirectPredictor *predictor = plan.generic[g];
                const Prediction prediction = predictor->predict(pc);
                if (counted) {
                    countMiss(results[plan.genericResult[g]], prediction,
                              target);
                }
                predictor->update(pc, target);
            }

            // Solo predictors push history inside update() *after*
            // consuming the key they cached pre-push; committing the
            // shared histories once, after every key of the record is
            // resolved, reproduces exactly that order.
            if (kernel != nullptr)
                kernel->commit(pc, target);

            if (++filled == kLaneBlockRecords)
                run_lane_block();
        }
    }
    if (filled != 0)
        run_lane_block();

    // One traversal produced all results, so the wall time is shared
    // state: record the real group time and split it evenly so
    // aggregate cell-seconds telemetry stays comparable with the
    // per-cell path (the quotient is synthetic - consumers branch on
    // sharedTraversal). predictors is non-empty here (guarded above).
    const double group_seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    const double seconds =
        group_seconds / static_cast<double>(predictors.size());
    for (const LanePlan::Column &column : plan.columns)
        plan.writeTotals(column, results[column.result]);
    for (const LanePlan::SelectorColumn &selector : plan.selectors)
        plan.writeTotals(selector.column, results[selector.column.result]);
    for (std::size_t g = 0; g < plan.generic.size(); ++g) {
        SimResult &result = results[plan.genericResult[g]];
        result.tableOccupancy = plan.generic[g]->tableOccupancy();
        result.tableCapacity = plan.generic[g]->tableCapacity();
    }
    // Every column scores every indirect branch after the warm-up.
    const std::uint64_t branches =
        seen > options.warmupBranches ? seen - options.warmupBranches : 0;
    for (std::size_t i = 0; i < predictors.size(); ++i) {
        results[i].branches = branches;
        results[i].seconds = seconds;
        results[i].groupSeconds = group_seconds;
        results[i].sharedTraversal = true;
    }
    return results;
}

} // namespace ibp
