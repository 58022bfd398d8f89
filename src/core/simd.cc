#include "core/simd.hh"

#include <bit>
#include <cstdlib>
#include <cstring>

namespace ibp {

namespace {

struct SimdConfig
{
    SimdLevel level = SimdLevel::Scalar;
    const char *reason = "";
    /** Widest level the hardware/build supports (test-hook clamp). */
    SimdLevel hardwareMax = SimdLevel::Scalar;
    bool haveBmi2 = false;
};

SimdConfig
detect()
{
    SimdConfig config;
#if IBP_X86_SIMD
    config.hardwareMax = __builtin_cpu_supports("avx2") != 0
                             ? SimdLevel::Avx2
                             : SimdLevel::Sse2;
    config.haveBmi2 = __builtin_cpu_supports("bmi2") != 0;
#else
    config.hardwareMax = SimdLevel::Scalar;
#endif

    config.level = config.hardwareMax;
    config.reason = config.hardwareMax == SimdLevel::Avx2
                        ? ""
                        : (config.hardwareMax == SimdLevel::Sse2
                               ? "cpu-lacks-avx2"
                               : "non-x86-build");

    const char *env = std::getenv("IBP_SIMD");
    if (env == nullptr || *env == '\0' ||
        std::strcmp(env, "auto") == 0) {
        return config;
    }
    if (std::strcmp(env, "off") == 0 ||
        std::strcmp(env, "scalar") == 0) {
        config.level = SimdLevel::Scalar;
        config.reason = "IBP_SIMD=off";
    } else if (std::strcmp(env, "sse2") == 0) {
        if (config.level > SimdLevel::Sse2) {
            config.level = SimdLevel::Sse2;
            config.reason = "IBP_SIMD=sse2";
        }
    }
    // "avx2" (and unrecognised values) keep the auto choice: forcing
    // a width the CPU lacks would fault, so the cap only goes down.
    return config;
}

SimdConfig &
configSlot()
{
    static SimdConfig config = detect();
    return config;
}

} // namespace

SimdLevel
simdLevel()
{
    return configSlot().level;
}

const char *
simdLevelName(SimdLevel level)
{
    switch (level) {
      case SimdLevel::Scalar: return "scalar";
      case SimdLevel::Sse2:   return "sse2";
      case SimdLevel::Avx2:   return "avx2";
    }
    return "?";
}

const char *
simdFallbackReason()
{
    return configSlot().reason;
}

bool
simdScatterEnabled()
{
    const SimdConfig &config = configSlot();
    return config.haveBmi2 && config.level != SimdLevel::Scalar;
}

SimdLevel
setSimdLevelForTest(SimdLevel level)
{
    SimdConfig &config = configSlot();
    if (level > config.hardwareMax)
        level = config.hardwareMax;
    config.level = level;
    config.reason =
        level == config.hardwareMax ? "" : "test-override";
    return level;
}

namespace simd {

#if IBP_X86_SIMD

[[gnu::target("avx2")]] TagGroup
scanTags32(const std::uint8_t *tags, std::uint8_t tag)
{
    TagGroup group;
    const __m256i bytes =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(tags));
    group.matches =
        static_cast<std::uint32_t>(_mm256_movemask_epi8(
            _mm256_cmpeq_epi8(
                bytes, _mm256_set1_epi8(static_cast<char>(tag)))));
    group.empties =
        static_cast<std::uint32_t>(_mm256_movemask_epi8(
            _mm256_cmpeq_epi8(bytes, _mm256_setzero_si256())));
    return group;
}

#else // !IBP_X86_SIMD

TagGroup
scanTags32(const std::uint8_t *tags, std::uint8_t tag)
{
    TagGroup group;
    for (unsigned i = 0; i < 32; ++i) {
        group.matches |= (tags[i] == tag ? 1u : 0u) << i;
        group.empties |= (tags[i] == 0 ? 1u : 0u) << i;
    }
    return group;
}

#endif // IBP_X86_SIMD

namespace {

std::size_t
classifyMetaScalar(const std::uint8_t *meta, std::size_t count,
                   std::uint32_t base, bool includeConditionals,
                   std::uint32_t *out)
{
    std::size_t written = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const std::uint8_t kind = meta[i] & 0x7fu;
        const bool interesting =
            includeConditionals ? kind < 4 : (kind - 1u) < 3u;
        if (interesting)
            out[written++] = base + static_cast<std::uint32_t>(i);
    }
    return written;
}

/** Turn a selected-lane bitmask into record indices, lane order. */
inline std::size_t
emitMask(std::uint32_t mask, std::uint32_t base, std::uint32_t *out)
{
    std::size_t written = 0;
    while (mask != 0) {
        const unsigned lane =
            static_cast<unsigned>(std::countr_zero(mask));
        out[written++] = base + lane;
        mask &= mask - 1;
    }
    return written;
}

#if IBP_X86_SIMD

std::size_t
classifyMetaSse2(const std::uint8_t *meta, std::size_t count,
                 std::uint32_t base, bool includeConditionals,
                 std::uint32_t *out)
{
    // kind = meta & 0x7f is in [0, 4], so signed byte compares are
    // exact: select 0 < kind < 4 (indirect) or kind < 4 (also
    // conditionals).
    const __m128i kind_mask = _mm_set1_epi8(0x7f);
    const __m128i zero = _mm_setzero_si128();
    const __m128i four = _mm_set1_epi8(4);
    std::size_t written = 0;
    std::size_t i = 0;
    for (; i + 16 <= count; i += 16) {
        const __m128i bytes = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(meta + i));
        const __m128i kind = _mm_and_si128(bytes, kind_mask);
        __m128i selected = _mm_cmpgt_epi8(four, kind);
        if (!includeConditionals) {
            selected = _mm_and_si128(selected,
                                     _mm_cmpgt_epi8(kind, zero));
        }
        const auto mask = static_cast<std::uint32_t>(
            _mm_movemask_epi8(selected));
        written += emitMask(
            mask, base + static_cast<std::uint32_t>(i),
            out + written);
    }
    written += classifyMetaScalar(
        meta + i, count - i, base + static_cast<std::uint32_t>(i),
        includeConditionals, out + written);
    return written;
}

[[gnu::target("avx2")]] std::size_t
classifyMetaAvx2(const std::uint8_t *meta, std::size_t count,
                 std::uint32_t base, bool includeConditionals,
                 std::uint32_t *out)
{
    const __m256i kind_mask = _mm256_set1_epi8(0x7f);
    const __m256i zero = _mm256_setzero_si256();
    const __m256i four = _mm256_set1_epi8(4);
    std::size_t written = 0;
    std::size_t i = 0;
    for (; i + 32 <= count; i += 32) {
        const __m256i bytes = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(meta + i));
        const __m256i kind = _mm256_and_si256(bytes, kind_mask);
        __m256i selected = _mm256_cmpgt_epi8(four, kind);
        if (!includeConditionals) {
            selected = _mm256_and_si256(
                selected, _mm256_cmpgt_epi8(kind, zero));
        }
        const auto mask = static_cast<std::uint32_t>(
            _mm256_movemask_epi8(selected));
        written += emitMask(
            mask, base + static_cast<std::uint32_t>(i),
            out + written);
    }
    written += classifyMetaScalar(
        meta + i, count - i, base + static_cast<std::uint32_t>(i),
        includeConditionals, out + written);
    return written;
}

#endif // IBP_X86_SIMD

} // namespace

std::size_t
classifyMeta(const std::uint8_t *meta, std::size_t count,
             std::uint32_t base, bool includeConditionals,
             std::uint32_t *out)
{
#if IBP_X86_SIMD
    switch (simdLevel()) {
      case SimdLevel::Avx2:
        return classifyMetaAvx2(meta, count, base,
                                includeConditionals, out);
      case SimdLevel::Sse2:
        return classifyMetaSse2(meta, count, base,
                                includeConditionals, out);
      case SimdLevel::Scalar:
        break;
    }
#endif
    return classifyMetaScalar(meta, count, base, includeConditionals,
                              out);
}

} // namespace simd

} // namespace ibp
