#include "core/sweep_kernel.hh"

#include <algorithm>

#include "core/hybrid.hh"
#include "core/two_level.hh"
#include "util/logging.hh"

namespace ibp {

const std::uint64_t *
SweepHistoryGroup::compressedFor(Addr pc)
{
    IBP_ASSERT(_cacheEnabled, "compressed-target cache disabled");
    const std::uint32_t set = _history->setId(pc);
    if (_cacheValid && _cacheVersion == _version && _cacheSet == set)
        return _compressed.data();
    const HistoryBuffer &buffer = _history->buffer(pc);
    for (unsigned i = 0; i < _cacheDepth; ++i)
        _compressed[i] =
            bitsRange(buffer.at(i), _cacheLowBit, _cacheBits);
    _cacheVersion = _version;
    _cacheSet = set;
    _cacheValid = true;
    return _compressed.data();
}

bool
SweepKernel::tryJoin(IndirectPredictor &predictor)
{
    IBP_ASSERT(!_finalized, "tryJoin after finalize");
    Column column;
    if (auto *two = dynamic_cast<TwoLevelPredictor *>(&predictor)) {
        column.members.push_back({two, bind(two->config())});
    } else if (auto *hybrid = dynamic_cast<HybridPredictor *>(&predictor)) {
        // Each component keeps its own history when solo, but every
        // one of them observes the same branch stream, so sharing a
        // group register per signature is observationally identical.
        column.hybrid = hybrid;
        for (unsigned c = 0; c < hybrid->numComponents(); ++c) {
            TwoLevelPredictor &component = hybrid->component(c);
            column.members.push_back(
                {&component, bind(component.config())});
        }
    } else {
        ++_declined;
        return false;
    }
    _columns.emplace(&predictor, std::move(column));
    ++_joined;
    return true;
}

std::uint32_t
SweepKernel::bind(const TwoLevelConfig &config)
{
    const SweepGroupSignature signature{
        config.historySharing,
        config.historyElement == HistoryElement::TargetAndAddress,
        config.includeConditionalTargets};
    const PatternSpec &spec = config.pattern;
    SweepHistoryGroup *group = nullptr;
    for (const auto &candidate : _groups) {
        if (candidate->_signature == signature) {
            group = candidate.get();
            break;
        }
    }
    if (group == nullptr) {
        _groups.push_back(
            std::make_unique<SweepHistoryGroup>(signature));
        group = _groups.back().get();
    }
    group->_maxDepth = std::max(group->_maxDepth, spec.pathLength);
    for (std::size_t v = 0; v < _variants.size(); ++v) {
        if (_variants[v]->_group == group && _variants[v]->spec() == spec)
            return static_cast<std::uint32_t>(v);
    }
    _variants.push_back(std::make_unique<SweepKeyVariant>(spec, *group));
    group->_variants.push_back(_variants.back().get());
    return static_cast<std::uint32_t>(_variants.size() - 1);
}

void
SweepKernel::finalize()
{
    IBP_ASSERT(!_finalized, "sweep kernel finalized twice");
    _finalized = true;
    for (const auto &groupPtr : _groups) {
        SweepHistoryGroup &group = *groupPtr;
        group._history = std::make_unique<HistoryRegister>(
            group._maxDepth, group._signature.sharingBits);

        // Shared compressed-target cache parameters: anchor on the
        // first bit-select variant's a, widen to the largest b and
        // deepest p among the variants that share that a. scatterBits
        // consumes exactly popcount(mask) low bits of its input, so
        // the width-_cacheBits compression serves every narrower
        // variant without an explicit mask.
        bool anchored = false;
        for (SweepKeyVariant *variant : group._variants) {
            if (!variant->_builder.fastAssemblyEligible())
                continue;
            const PatternSpec &spec = variant->spec();
            if (!anchored) {
                group._cacheLowBit = spec.lowBit;
                anchored = true;
            }
            if (spec.lowBit != group._cacheLowBit)
                continue;
            group._cacheBits = std::max(group._cacheBits,
                                        spec.resolvedBitsPerTarget());
            group._cacheDepth =
                std::max(group._cacheDepth, spec.pathLength);
        }
        group._cacheEnabled = anchored && group._cacheDepth > 0;
        if (group._cacheEnabled)
            group._compressed.assign(group._cacheDepth, 0);

        for (SweepKeyVariant *variant : group._variants) {
            const PatternSpec &spec = variant->spec();
            variant->_fast =
                group._cacheEnabled &&
                variant->_builder.fastAssemblyEligible() &&
                spec.lowBit == group._cacheLowBit &&
                spec.pathLength <= group._cacheDepth &&
                spec.resolvedBitsPerTarget() <= group._cacheBits;
        }

        // Incremental patterns require a *global* history: a push
        // must advance the one pattern every branch reads. Per-set
        // groups keep the rebuild paths (a push into set A must not
        // disturb set B's pattern). Cold history is all zeros, whose
        // assembled pattern is 0 - the running values start correct.
        if (group._signature.sharingBits >= 32) {
            for (SweepKeyVariant *variant : group._variants) {
                if (!variant->_builder.incrementalAdvanceEligible())
                    continue;
                variant->_incremental = true;
                variant->_pattern = 0;
                group._incremental.push_back(variant);
            }
        }
    }
}

} // namespace ibp
