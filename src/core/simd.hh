/**
 * @file
 * Runtime SIMD dispatch for the simulation hot path.
 *
 * Every vectorized primitive in the engine — the FlatMap group tag
 * probe, the trace-block kind classifier, the PDEP pattern scatter —
 * routes its level selection through this one module so the whole
 * process answers a single question the same way: how wide may the
 * hot loops go on this machine, under this configuration?
 *
 * The level is resolved once at startup from two inputs:
 *
 *  - hardware: AVX2 via __builtin_cpu_supports (SSE2 is the x86-64
 *    baseline and needs no probe); non-x86 or non-GNU builds compile
 *    the scalar fallbacks only and report Scalar unconditionally;
 *  - the IBP_SIMD environment override: "off"/"scalar" forces the
 *    scalar paths (the differential tests pin them bit-identical to
 *    the vector paths), "sse2" caps at 16-wide, "avx2"/"auto"/unset
 *    pick the widest the CPU supports.
 *
 * Dispatch is data-independent: for a given level every primitive
 * visits slots/records in exactly the scalar order, so results are
 * bit-identical across levels by construction and the tests enforce
 * it. setSimdLevelForTest() lets one process exercise every level.
 */

#ifndef IBP_CORE_SIMD_HH
#define IBP_CORE_SIMD_HH

#include <cstddef>
#include <cstdint>

#include "core/outcome.hh"

// One x86 gate for every vector primitive: the intrinsics below need
// both the architecture and a GNU-flavoured compiler (function target
// attributes, __builtin_cpu_supports). MSVC/arm builds take the
// scalar branches and still compile cleanly.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define IBP_X86_SIMD 1
#include <immintrin.h>
#else
#define IBP_X86_SIMD 0
#endif

// Read-prefetch hint for dense forward scans (trace record arrays).
// Compiles to nothing where the builtin is unavailable; callers never
// need their own compiler check.
#if defined(__GNUC__) || defined(__clang__)
#define IBP_PREFETCH(address) __builtin_prefetch((address), 0, 1)
#else
#define IBP_PREFETCH(address) ((void)0)
#endif

namespace ibp {

/** Widest vector path the process may use (ordered by width). */
enum class SimdLevel : std::uint8_t
{
    Scalar = 0,
    Sse2 = 1,
    Avx2 = 2,
};

/** The dispatch level resolved at startup (hardware x IBP_SIMD). */
SimdLevel simdLevel();

/** "scalar" / "sse2" / "avx2". */
const char *simdLevelName(SimdLevel level);

/**
 * Why the process is not running the widest path: "" at full width,
 * else "IBP_SIMD=<value>", "cpu-lacks-avx2" or "non-x86-build"
 * (artifact telemetry, metrics.simd.fallback_reason).
 */
const char *simdFallbackReason();

/**
 * Hardware PDEP availability for the pattern scatter, under the same
 * override: IBP_SIMD=off also forces the portable scatter loop (the
 * two are bit-identical; the override exists so tests and bisects can
 * run the whole engine scalar).
 */
bool simdScatterEnabled();

/**
 * Test hook: force the level in-process. Clamped to what the CPU
 * supports; returns the level actually applied. Not thread-safe —
 * call before spawning simulation workers.
 */
SimdLevel setSimdLevelForTest(SimdLevel level);

namespace simd {

/** One group-scan over 16 or 32 one-byte tags. Bit i of @p matches /
 *  @p empties says tag byte i equals the probe tag / the empty tag
 *  (0). Lane order == memory order, so consumers can replay the
 *  scalar probe sequence exactly with ctz walks. */
struct TagGroup
{
    std::uint32_t matches = 0;
    std::uint32_t empties = 0;
};

/** 32-wide AVX2 tag scan (defined out of line so the target
 *  attribute never leaks into generic translation units). Call only
 *  when simdLevel() == Avx2. */
TagGroup scanTags32(const std::uint8_t *tags, std::uint8_t tag);

/** 16-wide tag scan. SSE2 is the x86-64 baseline, so this inlines
 *  into any caller; elsewhere it is a scalar loop. */
inline TagGroup
scanTags16(const std::uint8_t *tags, std::uint8_t tag)
{
    TagGroup group;
#if IBP_X86_SIMD
    const __m128i bytes =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(tags));
    group.matches = static_cast<std::uint32_t>(_mm_movemask_epi8(
        _mm_cmpeq_epi8(bytes, _mm_set1_epi8(static_cast<char>(tag)))));
    group.empties = static_cast<std::uint32_t>(_mm_movemask_epi8(
        _mm_cmpeq_epi8(bytes, _mm_setzero_si128())));
#else
    for (unsigned i = 0; i < 16; ++i) {
        group.matches |= (tags[i] == tag ? 1u : 0u) << i;
        group.empties |= (tags[i] == 0 ? 1u : 0u) << i;
    }
#endif
    return group;
}

/**
 * Classify a trace meta column (kind | taken<<7 per byte, see
 * trace/trace_mmap.hh): append the index base+i of every record the
 * simulation loop must visit — predicted-indirect kinds (1..3)
 * always, conditionals (kind 0) too when @p includeConditionals.
 * Returns the number of indices written to @p out (capacity >=
 * @p count). Dispatches on simdLevel(); every level emits indices in
 * record order.
 */
std::size_t classifyMeta(const std::uint8_t *meta, std::size_t count,
                         std::uint32_t base, bool includeConditionals,
                         std::uint32_t *out);

/**
 * Reduce one *pair column* over @p count records (core/outcome.hh):
 * record r's answer is first[r] unless second[r] has a strictly
 * higher rank, so the first member wins ties; a plain column passes
 * one stream as both. @p misses gains 1 per answer that is not
 * correct, @p noPrediction 1 per answer that is not valid. The lane
 * engine keeps each machine's words contiguous per block, so this is
 * a dense, branch-free loop over two streams that the compiler
 * vectorises at the baseline width; @p count must be below 2^32.
 */
inline void
scorePairStream(const std::uint32_t *first, const std::uint32_t *second,
                std::size_t count, std::uint64_t &misses,
                std::uint64_t &noPrediction)
{
    std::uint32_t miss = 0;
    std::uint32_t none = 0;
    for (std::size_t r = 0; r < count; ++r) {
        const std::uint32_t a = first[r];
        const std::uint32_t b = second[r];
        // Ranks are below 2^30, so the signed compare is exact; a mask
        // select, not `? :`, keeps the loop free of branches.
        const std::uint32_t second_wins =
            0u - static_cast<std::uint32_t>(
                     static_cast<std::int32_t>(outcomeRank(b)) >
                     static_cast<std::int32_t>(outcomeRank(a)));
        const std::uint32_t chosen = a ^ ((a ^ b) & second_wins);
        miss += ~chosen & kOutcomeCorrect;
        none += (~chosen & kOutcomeValid) >> 1;
    }
    misses += miss;
    noPrediction += none;
}

} // namespace simd

} // namespace ibp

#endif // IBP_CORE_SIMD_HH
