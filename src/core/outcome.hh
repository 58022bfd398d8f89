/**
 * @file
 * The lane engine's outcome word: one probed machine's answer to one
 * record, scored against the resolved target, in four bytes.
 *
 *   word = rank << kOutcomeRankShift | valid << 1 | correct
 *
 * with the rank from confidenceRank() and 0 for a machine with no
 * valid entry. Comparing two words' ranks is the confidence
 * metapredictor's choice (section 6.1), so a column's answer is one of
 * its members' words and its counters read the low two bits. Produced
 * by twoLevelOutcome() (core/two_level.hh) and reduced by the pair
 * scoring in core/simd.hh; this header is the one place the layout is
 * defined.
 */

#ifndef IBP_CORE_OUTCOME_HH
#define IBP_CORE_OUTCOME_HH

#include <cstdint>

namespace ibp {

inline constexpr unsigned kOutcomeRankShift = 2;
inline constexpr std::uint32_t kOutcomeValid = 2;
inline constexpr std::uint32_t kOutcomeCorrect = 1;

/**
 * The confidence-metaprediction rank of a component's answer: 0
 * without a valid entry, else the entry's confidence + 1, so every
 * real entry outranks a missing one. The highest rank wins and the
 * earlier component wins ties. The one definition behind
 * confidenceChoice() (HybridPredictor::predict()) and the outcome
 * words.
 */
inline std::uint32_t
confidenceRank(bool valid, unsigned confidence)
{
    return valid ? confidence + 1 : 0;
}

inline std::uint32_t
outcomeRank(std::uint32_t word)
{
    return word >> kOutcomeRankShift;
}

inline bool
outcomeValid(std::uint32_t word)
{
    return (word & kOutcomeValid) != 0;
}

inline bool
outcomeCorrect(std::uint32_t word)
{
    return (word & kOutcomeCorrect) != 0;
}

} // namespace ibp

#endif // IBP_CORE_OUTCOME_HH
