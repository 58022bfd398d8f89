#include "core/sweep_kernel.hh"

#include <algorithm>

#include "util/logging.hh"

namespace ibp {

Key
SweepKeyVariant::rebuild(Addr pc, SweepHistoryGroup &group)
{
    Key key;
    if (_incremental) {
        // Global-history incremental mode: the pattern is maintained
        // push-by-push (step()), so the per-branch work is just the
        // address mix.
        key = _builder.keyFromPattern(pc, _pattern);
    } else if (_fast) {
        const std::uint64_t *compressed = group.compressedFor(pc);
        key = _builder.keyFromPattern(
            pc, _builder.assembleFromCompressed(compressed));
    } else {
        // Fold/shift-xor/full-precision/reference-mode recipes keep
        // their own assembly, but over the *shared* buffer - columns
        // with identical specs still collapse onto this one memo.
        key = _builder.buildKey(pc, group.buffer(pc));
    }
    _memoVersion = group._version;
    _memoPc = pc;
    _memoValid = true;
    _memoKey = key;
    return key;
}

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
    if (predictor.joinSweepKernel(*this)) {
        ++_joined;
        return true;
    }
    ++_declined;
    return false;
}

SweepKernel::Binding
SweepKernel::bind(const SweepGroupSignature &signature,
                  const PatternSpec &spec)
{
    IBP_ASSERT(!_finalized, "bind after finalize");
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
    for (const auto &variant : group->_variants) {
        if (variant->spec() == spec)
            return Binding{group, variant.get()};
    }
    group->_variants.push_back(std::make_unique<SweepKeyVariant>(spec));
    return Binding{group, group->_variants.back().get()};
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
        for (const auto &variant : group._variants) {
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

        for (const auto &variant : group._variants) {
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
            for (const auto &variant : group._variants) {
                if (!variant->_builder.incrementalAdvanceEligible())
                    continue;
                variant->_incremental = true;
                variant->_pattern = 0;
                group._incremental.push_back(variant.get());
            }
        }
    }
}

} // namespace ibp
