/**
 * @file
 * Declarative table specification and factory.
 */

#ifndef IBP_CORE_TABLE_SPEC_HH
#define IBP_CORE_TABLE_SPEC_HH

#include <cstdint>
#include <memory>
#include <string>

#include "core/table.hh"

namespace ibp {

/** The table organisations studied in the paper. */
enum class TableKind
{
    Unconstrained,
    FullyAssoc,
    SetAssoc,
    Tagless,
};

std::string toString(TableKind kind);

/** Size/organisation of one second-level table. */
struct TableSpec
{
    TableKind kind = TableKind::Unconstrained;
    /** Total entries for bounded kinds (ignored for Unconstrained). */
    std::uint64_t entries = 0;
    /** Associativity for SetAssoc. */
    unsigned ways = 1;

    bool operator==(const TableSpec &other) const = default;

    /** Validate; calls fatal() on user error. */
    void validate() const;

    /** "unconstrained", "fullassoc-1024", "assoc4-512", "tagless-1K". */
    std::string describe() const;

    static TableSpec unconstrained();
    static TableSpec fullyAssoc(std::uint64_t entries);
    static TableSpec setAssoc(std::uint64_t entries, unsigned ways);
    static TableSpec tagless(std::uint64_t entries);
};

/**
 * Which storage implementation makeTable() instantiates:
 *  - Flat: the FlatMap / intrusive-LRU / tag-digest ports (default);
 *  - Reference: the retained node-based originals
 *    (core/reference_tables.hh), the behavioural oracle of the
 *    differential tests.
 *
 * The process-wide default is Flat; setTableImplementation()
 * switches it at runtime (used by the differential tests, the
 * benchmark's reference-implementation check and micro_throughput's
 * flat-vs-reference comparison). Both name() strings and all SimResult counters are
 * identical across the two, so the toggle is invisible in artifacts
 * except for the recorded table_impl field.
 */
enum class TableImpl
{
    Flat,
    Reference,
};

/** The implementation makeTable() currently instantiates. */
TableImpl tableImplementation();

/** Override the process-wide table implementation. Thread-safe, but
 * predictors built before the call keep their tables. */
void setTableImplementation(TableImpl impl);

/** "flat" / "reference". */
const char *tableImplName(TableImpl impl);

/** Name of the current implementation (for telemetry). */
const char *tableImplName();

/** Instantiate the table described by @p spec, in implementation
 *  @p impl (the process-wide one unless a caller pinned it earlier). */
std::unique_ptr<TargetTable>
makeTable(const TableSpec &spec, EntryCounterSpec counters = {},
          TableImpl impl = tableImplementation());

} // namespace ibp

#endif // IBP_CORE_TABLE_SPEC_HH
