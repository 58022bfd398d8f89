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
#include "core/two_level.hh"
#include "robust/error.hh"
#include "trace/trace_block.hh"
#include "util/logging.hh"

// IBP_PREFETCH (core/simd.hh) pulls upcoming records toward L1 while
// the predictor works on the current one. The records are a dense
// read-only array (often a view of an mmap'ed cache file, so the
// first touch is a page-cache read, not a generator store), which
// makes a modest lookahead worthwhile.

namespace ibp {

namespace {

constexpr std::size_t kPrefetchDistance = 16;

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

/**
 * The lane engine's execution plan for a fused traversal.
 *
 * Columns whose per-record work is a function of bound two-level
 * component predictions - plain bound TwoLevelPredictor columns and
 * hybrids (confidence or selector metaprediction) with every
 * component bound - are executed in *phases* across the whole column
 * set: first every distinct state machine is probed and scored into an
 * outcome word (twoLevelOutcome()), then each column reduces its
 * members' words into counters, then every machine trains, and only
 * then do the remaining (generic) columns run their usual
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
 * per record. The phase split is bit-identical to the interleaved
 * order because columns are state-disjoint apart from the machines,
 * which are all probed before any trains, and the shared history,
 * which only the kernel commit after all phases advances. Generic
 * columns hold no bound machine and run independently.
 *
 * Machines that are stack-mates (stackMates(): equal but for the
 * table, both fully associative or both set-associative with equal
 * set counts) run as one structure instead of one table each: an
 * LruStack (core/lru_stack.hh) for fully-associative mates, a
 * SetStack (core/set_stack.hh) for set-associative ones. One lookup
 * and one recency depth per record answer every member. A stack forms
 * only from two or more machines (a lone machine drives its own
 * table: a one-member LruStack measured slower than its
 * FullyAssocTable) whose owners all pinned the flat table
 * implementation, so a run on the
 * reference tables - the tests' oracle and the benchmark's reference
 * check - still drives the node-based tables. Table machines keep
 * ids 0..T-1 in plan order and stack members follow, each stack's
 * members contiguous and ascending in size; stack members never
 * allocate a table of their own. A stack shares no state with any
 * other machine, so it probes and trains in one step during phase 1
 * (stepStacks()).
 *
 * Phase 2 reads only the outcome words. A column of one or two members
 * (a plain column or a two-component confidence hybrid) is a *pair*:
 * the plan keeps the pairs' member machines and 32-bit miss and
 * no-prediction counters in dense arrays, scored by one branch-free
 * reduction per record (simd::scorePairsScalar() / scorePairsAvx2())
 * and flushed into the columns' 64-bit totals once per trace block.
 * Wider confidence hybrids take the highest-ranked word in a scalar
 * loop; selector hybrids read the words' valid and correct bits.
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
     * One machine's flattened per-record execution recipe: the lane
     * engine drives the owner's table directly (prefetch, probe,
     * access plus the two-level update rule) with the key of the
     * machine's shared variant, resolved once per record per *slot*
     * (distinct variant). This removes the whole
     * predict()/update()/currentKey() call stack from the hot loop.
     */
    struct Machine
    {
        TargetTable *table;        ///< the owner's second-level table
        /** table when it is a SetAssocTable (the sweep workhorse),
         *  else nullptr: SetAssocTable is final with inline
         *  probe/access, so this pointer devirtualizes the per-record
         *  table work and lets it inline into the lane loops. */
        SetAssocTable *setAssoc;
        std::uint32_t keySlot;     ///< index into keySlots/laneKeys
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

    /** One distinct (variant, group) key source among the machines. */
    struct KeySlot
    {
        SweepKeyVariant *variant;
        SweepHistoryGroup *group;
    };

    std::vector<TwoLevelPredictor *> owners;   ///< one per machine
    /** Table machines' recipes, parallel to owners' first T. */
    std::vector<Machine> machines;
    /** The other owners: fully-associative stacks, set stacks. */
    std::vector<Stack<LruStack>> lruStacks;
    std::vector<Stack<SetStack>> setStacks;
    std::vector<KeySlot> keySlots;
    std::vector<Key> laneKeys;                 ///< per-slot scratch
    std::vector<std::uint16_t> memberPool;     ///< column members
    /** Confidence and plain columns: the pairs first, then wider. */
    std::vector<Column> columns;
    std::vector<SelectorColumn> selectors;
    std::vector<IndirectPredictor *> generic;  ///< record-at-a-time
    std::vector<std::size_t> genericResult;
    /** One record's outcome word per machine (twoLevelOutcome()). */
    std::vector<std::uint32_t> outcome;
    /** Pair column p = columns[p]: its first and second member
     *  machine and its counters since the last flush. */
    std::vector<std::uint32_t> pairFirst;
    std::vector<std::uint32_t> pairSecond;
    std::vector<std::uint32_t> pairMisses;
    std::vector<std::uint32_t> pairNoPrediction;
    /** Members folded onto an earlier equal machine. */
    std::uint32_t folded = 0;

    /** Add the pair counters into their columns' totals and restart
     *  them; called once per trace block, at most kTraceBlockRecords
     *  counts, so the 32-bit counters never overflow. */
    void
    flushPairs()
    {
        for (std::size_t p = 0; p < pairFirst.size(); ++p) {
            columns[p].misses += pairMisses[p];
            columns[p].noPrediction += pairNoPrediction[p];
        }
        std::fill(pairMisses.begin(), pairMisses.end(), 0);
        std::fill(pairNoPrediction.begin(), pairNoPrediction.end(), 0);
    }

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
 * flat-table stack-mates sharing a key source, keep groups of two or
 * more as stacks, renumber the remaining table machines 0..T-1 and
 * every stack's members after them, and return each stack's member
 * count in that order.
 */
std::vector<std::size_t>
formStacks(LanePlan &plan)
{
    std::vector<std::vector<std::uint16_t>> groups;
    for (std::size_t m = 0; m < plan.owners.size(); ++m) {
        const TwoLevelPredictor &owner = *plan.owners[m];
        const TableKind kind = owner.config().table.kind;
        if ((kind != TableKind::FullyAssoc && kind != TableKind::SetAssoc) ||
            owner.tableImpl() != TableImpl::Flat) {
            continue;
        }
        std::size_t g = 0;
        while (g < groups.size()) {
            const TwoLevelPredictor &mate = *plan.owners[groups[g][0]];
            if (stackMates(mate.config(), owner.config()) &&
                mate.sweepVariant() == owner.sweepVariant()) {
                break;
            }
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
    std::vector<TwoLevelPredictor *> ordered;
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
                      return plan.owners[a]->config().table.entries <
                             plan.owners[b]->config().table.entries;
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
              bool fused)
{
    LanePlan plan;
    // The machine a two-level member runs on: the earlier one with an
    // equal configuration (the member folds), else a new one whose
    // table it owns.
    const auto machineOf = [&plan](TwoLevelPredictor &member) {
        for (std::size_t m = 0; m < plan.owners.size(); ++m) {
            if (plan.owners[m]->config() == member.config()) {
                ++plan.folded;
                return static_cast<std::uint16_t>(m);
            }
        }
        IBP_ASSERT(plan.owners.size() <= 0xffff,
                   "lane plan exceeds 65536 machines");
        plan.owners.push_back(&member);
        return static_cast<std::uint16_t>(plan.owners.size() - 1);
    };
    const auto allBound = [](HybridPredictor &hybrid) {
        for (unsigned c = 0; c < hybrid.numComponents(); ++c) {
            if (!hybrid.component(c).sweepBound())
                return false;
        }
        return true;
    };

    for (std::size_t i = 0; i < predictors.size(); ++i) {
        IndirectPredictor *predictor = predictors[i];
        LanePlan::Column column{
            i, static_cast<std::uint32_t>(plan.memberPool.size()), 1};
        if (fused) {
            if (auto *two =
                    dynamic_cast<TwoLevelPredictor *>(predictor);
                two != nullptr && two->sweepBound()) {
                plan.memberPool.push_back(machineOf(*two));
                plan.columns.push_back(column);
                continue;
            }
            if (auto *hybrid =
                    dynamic_cast<HybridPredictor *>(predictor);
                hybrid != nullptr && allBound(*hybrid)) {
                column.count = hybrid->numComponents();
                for (unsigned c = 0; c < column.count; ++c) {
                    plan.memberPool.push_back(
                        machineOf(hybrid->component(c)));
                }
                if (hybrid->config().meta == MetaKind::Selector)
                    plan.selectors.push_back({column, hybrid});
                else
                    plan.columns.push_back(column);
                continue;
            }
        }
        plan.generic.push_back(predictor);
        plan.genericResult.push_back(i);
    }
    plan.outcome.resize(plan.owners.size());
    const std::vector<std::size_t> stack_sizes = formStacks(plan);

    // Pairs first, with their members (as renumbered for the stacks)
    // in the dense arrays; a plain column pairs its member with itself.
    const auto wide = std::stable_partition(
        plan.columns.begin(), plan.columns.end(),
        [](const LanePlan::Column &column) { return column.count <= 2; });
    for (auto column = plan.columns.begin(); column != wide; ++column) {
        const std::uint16_t *member = &plan.memberPool[column->first];
        plan.pairFirst.push_back(member[0]);
        plan.pairSecond.push_back(member[column->count - 1]);
    }
    plan.pairMisses.assign(plan.pairFirst.size(), 0);
    plan.pairNoPrediction.assign(plan.pairFirst.size(), 0);

    // Resolve the flattened execution recipes. Machines sharing a
    // PatternSpec share a key slot, so a fig17 row resolves each
    // distinct key exactly once per record no matter how many tables
    // consume it.
    const auto keySlotOf = [&plan](const TwoLevelPredictor &owner) {
        SweepKeyVariant *variant = owner.sweepVariant();
        std::uint32_t slot = 0;
        while (slot < plan.keySlots.size() &&
               plan.keySlots[slot].variant != variant) {
            ++slot;
        }
        if (slot == plan.keySlots.size())
            plan.keySlots.push_back({variant, owner.sweepGroup()});
        return slot;
    };
    std::size_t m = 0;
    const std::size_t table_machines =
        plan.owners.size() -
        std::accumulate(stack_sizes.begin(), stack_sizes.end(),
                        std::size_t{0});
    for (; m < table_machines; ++m) {
        TwoLevelPredictor &owner = *plan.owners[m];
        TargetTable &table = owner.table();
        plan.machines.push_back(
            {&table, dynamic_cast<SetAssocTable *>(&table),
             keySlotOf(owner), owner.config().hysteresis});
    }
    for (const std::size_t members : stack_sizes) {
        const TwoLevelConfig &config = plan.owners[m]->config();
        const auto first = static_cast<std::uint32_t>(m);
        const std::uint32_t slot = keySlotOf(*plan.owners[m]);
        if (config.table.kind == TableKind::FullyAssoc) {
            std::vector<std::uint64_t> sizes;
            for (std::size_t k = 0; k < members; ++k)
                sizes.push_back(plan.owners[m + k]->config().table.entries);
            plan.lruStacks.push_back(
                {LruStack(std::move(sizes), config.entryCounters()), first,
                 slot, config.hysteresis});
        } else {
            std::vector<unsigned> ways;
            for (std::size_t k = 0; k < members; ++k)
                ways.push_back(plan.owners[m + k]->config().table.ways);
            plan.setStacks.push_back(
                {SetStack(std::move(ways),
                          config.table.entries / config.table.ways,
                          config.entryCounters()),
                 first, slot, config.hysteresis});
        }
        m += members;
    }
    plan.laneKeys.resize(plan.keySlots.size());
    return plan;
}

/**
 * One record's work for every stack of @p stacks: probe, record each
 * member's pre-update outcome word in @p outcome, and train. A stack
 * shares no state with the table machines, so it can train before
 * they are probed; what phase 2 reads is the recorded words. Set
 * stacks first start pulling every stack's set toward the cache. Kept
 * out of line: inlined into the lane loop it slowed grids without a
 * stack (fig17).
 */
template <typename Structure>
[[gnu::noinline]] void
stepStacks(std::vector<LanePlan::Stack<Structure>> &stacks,
           const Key *lane_keys, std::uint32_t *outcome, Addr target)
{
    if constexpr (std::is_same_v<Structure, SetStack>) {
        for (const LanePlan::Stack<Structure> &stack : stacks)
            stack.structure.prefetch(lane_keys[stack.keySlot]);
    }
    for (LanePlan::Stack<Structure> &stack : stacks) {
        const Key &key = lane_keys[stack.keySlot];
        std::uint32_t resident = 0;
        const TableEntry *row = stack.structure.probe(key, resident);
        std::uint32_t *words = outcome + stack.firstMachine;
        const std::size_t members = stack.structure.members();
        for (std::size_t k = 0; k < members; ++k) {
            words[k] =
                twoLevelOutcome(k < resident ? nullptr : row + k, target);
        }
        TableEntry *entries = stack.structure.access(key);
        for (std::size_t k = 0; k < members; ++k) {
            trainTwoLevelEntry(entries[k], k < resident, target,
                               stack.hysteresis);
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
    // the cancel token pointer and the record array never change
    // mid-run, and the compiler cannot prove that through the
    // by-reference options struct on its own.
    const CancelToken *const cancel = options.cancel;
    const BranchRecord *const records = trace.data();
    const std::size_t count = trace.size();

    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < count; ++i) {
        // One increment-and-mask per record keeps the cancellation
        // poll off the hot path's critical work; 1K records is a
        // few microseconds, so a deadline overrun is caught fast
        // even on the small traces of quick runs.
        if (((i + 1) & 0x3ffu) == 0 && cancel && cancel->cancelled())
            throwCancelled(trace);
        if (i + kPrefetchDistance < count)
            IBP_PREFETCH(records + i + kPrefetchDistance);

        const BranchRecord &record = records[i];
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
    // records matter to anyone: bound predictors fold conditional
    // targets in through the kernel's groups, so when no generic
    // column consumes them either, the block classifier drops them
    // without ever dispatching a record.
    LanePlan plan = buildLanePlan(predictors, kernel != nullptr);
    bool need_conditionals =
        kernel != nullptr && kernel->hasConditionalGroups();
    for (IndirectPredictor *predictor : predictors)
        need_conditionals |= predictor->consumesConditionals();

    const std::size_t machine_count = plan.machines.size();
    const LanePlan::Machine *const machines = plan.machines.data();
    const std::size_t key_slot_count = plan.keySlots.size();
    const LanePlan::KeySlot *const key_slots = plan.keySlots.data();
    Key *const lane_keys = plan.laneKeys.data();
    std::uint32_t *const outcome = plan.outcome.data();
    const std::uint16_t *const members = plan.memberPool.data();
    const bool lru_stacks = !plan.lruStacks.empty();
    const bool set_stacks = !plan.setStacks.empty();
    const std::size_t pair_count = plan.pairFirst.size();
    const std::uint32_t *const pair_first = plan.pairFirst.data();
    const std::uint32_t *const pair_second = plan.pairSecond.data();
    std::uint32_t *const pair_misses = plan.pairMisses.data();
    std::uint32_t *const pair_no_prediction = plan.pairNoPrediction.data();
    // The dispatch level is read once per traversal, and the
    // out-of-line AVX2 reduction runs only when it has a full step of
    // pairs to score; fewer pairs run the inlined scalar loop.
    const bool avx2_pairs = pair_count >= simd::kPairsPerAvx2Step &&
                            simdLevel() == SimdLevel::Avx2;

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

    // The trace is consumed in cache-resident SoA blocks (zero-copy
    // for columnar traces); the classifier turns each block into the
    // index list of records anyone cares about. Every predictor
    // still sees exactly the sequence simulate() would have fed it,
    // so the counters must match it bit for bit.
    TraceBlockCursor cursor(trace);
    static_assert(kTraceBlockRecords <= 0xffffffffu,
                  "a block's pair counts must fit 32 bits");
    std::vector<std::uint32_t> selected(kTraceBlockRecords);
    std::uint64_t seen = 0;
    std::uint64_t polled = 0;
    TraceBlock block;
    while (cursor.next(block)) {
        if (cancel && cancel->cancelled())
            throwCancelled(trace);
        const std::size_t selected_count = simd::classifyMeta(
            block.meta, block.count, 0, need_conditionals,
            selected.data());
        if (options.traversal != nullptr) {
            if (cursor.columnarSource())
                ++options.traversal->columnarBlocks;
            else
                ++options.traversal->transposedBlocks;
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
                // Lane columns are fully bound - their
                // observeConditional() chains are no-ops - so only
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

            // Phase 0: resolve each distinct key once (incremental
            // variants collapse this to an address mix), then start
            // pulling every machine's table set toward the cache -
            // the dozen-plus tables of a sweep row do not fit L2 and
            // their probe misses would otherwise stall back to back.
            for (std::size_t v = 0; v < key_slot_count; ++v) {
                lane_keys[v] = key_slots[v].variant->laneKey(
                    pc, *key_slots[v].group);
            }
            for (std::size_t m = 0; m < machine_count; ++m) {
                const LanePlan::Machine &machine = machines[m];
                if (machine.setAssoc != nullptr)
                    machine.setAssoc->prefetch(
                        lane_keys[machine.keySlot]);
            }

            // Phase 1: probe every distinct state machine once,
            // directly on its table, reproducing
            // TwoLevelPredictor::predict(), and score the answer into
            // the machine's outcome word. The probes are pre-update
            // by construction.
            for (std::size_t m = 0; m < machine_count; ++m) {
                const LanePlan::Machine &machine = machines[m];
                outcome[m] = twoLevelOutcome(
                    machine.setAssoc != nullptr
                        ? machine.setAssoc->probe(
                              lane_keys[machine.keySlot])
                        : machine.table->probe(
                              lane_keys[machine.keySlot]),
                    target);
            }
            // ... and every stack once for all of its members.
            if (lru_stacks)
                stepStacks(plan.lruStacks, lane_keys, outcome, target);
            if (set_stacks)
                stepStacks(plan.setStacks, lane_keys, outcome, target);

            // Phase 2: reduce the outcome words into column counters
            // (pure arithmetic - skipped wholesale during warm-up).
            if (counted) {
                if (avx2_pairs) {
                    simd::scorePairsAvx2(outcome, pair_first, pair_second,
                                         pair_misses, pair_no_prediction,
                                         pair_count);
                } else {
                    simd::scorePairsScalar(
                        outcome, pair_first, pair_second, pair_misses,
                        pair_no_prediction, pair_count);
                }
                for (std::size_t c = pair_count; c < plan.columns.size();
                     ++c) {
                    LanePlan::Column &column = plan.columns[c];
                    const std::uint16_t *member = members + column.first;
                    std::uint32_t best = outcome[member[0]];
                    for (std::uint32_t k = 1; k < column.count; ++k) {
                        const std::uint32_t word = outcome[member[k]];
                        if (outcomeRank(word) > outcomeRank(best))
                            best = word;
                    }
                    column.score(best);
                }
            }
            // Selector hybrids choose (when counted) and train their
            // selection tables on every record, warm-up included,
            // from their members' pre-update outcome words.
            for (LanePlan::SelectorColumn &selector : plan.selectors) {
                const std::uint16_t *member =
                    members + selector.column.first;
                const std::uint32_t first = outcome[member[0]];
                const std::uint32_t second = outcome[member[1]];
                if (counted) {
                    const int chosen = selector.hybrid->selectorChoice(
                        pc, outcomeValid(first), outcomeValid(second));
                    selector.column.score(
                        chosen < 0 ? 0 : (chosen == 0 ? first : second));
                }
                selector.hybrid->trainSelector(
                    pc, outcomeCorrect(first), outcomeCorrect(second));
            }

            // Phase 3: train every machine exactly once with the
            // two-level update rule; the access consumes the probe's
            // way memo, and bound owners push no history (the
            // kernel commit below advances the shared groups).
            for (std::size_t m = 0; m < machine_count; ++m) {
                const LanePlan::Machine &machine = machines[m];
                bool replaced = false;
                TableEntry &entry =
                    machine.setAssoc != nullptr
                        ? machine.setAssoc->access(
                              lane_keys[machine.keySlot], replaced)
                        : machine.table->access(
                              lane_keys[machine.keySlot], replaced);
                trainTwoLevelEntry(entry, replaced, target,
                                   machine.hysteresis);
            }

            // Phase 4: generic columns run their usual interleaved
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
            // shared histories once, after every bound predictor
            // trained, reproduces exactly that order.
            if (kernel != nullptr)
                kernel->commit(pc, target);
        }
        plan.flushPairs();
    }

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
