#include "core/two_level.hh"

#include <sstream>

#include "core/sweep_kernel.hh"
#include "util/logging.hh"

namespace ibp {

void
TwoLevelConfig::validate() const
{
    pattern.validate();
    table.validate();
    if (historySharing < 2 || historySharing > 32)
        fatal("history sharing s=%u outside [2, 32]", historySharing);
    if (confidenceBits < 1 || confidenceBits > 8)
        fatal("confidence counter width %u outside [1, 8]",
              confidenceBits);
}

std::string
TwoLevelConfig::describe() const
{
    std::ostringstream out;
    out << "twolevel[" << pattern.describe();
    if (historySharing != 32)
        out << ",s=" << historySharing;
    out << ',' << table.describe();
    if (!hysteresis)
        out << ",no2bc";
    if (includeConditionalTargets)
        out << ",condhist";
    if (historyElement == HistoryElement::TargetAndAddress)
        out << ",addrhist";
    out << ']';
    return out.str();
}

TwoLevelPredictor::TwoLevelPredictor(const TwoLevelConfig &config)
    : _config(config),
      _builder(config.pattern),
      _history(config.pattern.pathLength, config.historySharing),
      _tableImpl(tableImplementation())
{
    _config.validate();
}

TargetTable &
TwoLevelPredictor::ownTable() const
{
    if (!_table) {
        _table = makeTable(_config.table,
                           EntryCounterSpec{_config.confidenceBits, 2},
                           _tableImpl);
    }
    return *_table;
}

Key
TwoLevelPredictor::currentKey(Addr pc)
{
    // Bound mode: the shared variant memoizes per (history version,
    // pc) - the local cache must not be consulted, pushes no longer
    // run here to invalidate it.
    if (_sweepVariant != nullptr)
        return _sweepVariant->key(pc, *_sweepGroup);
    if (_cacheValid && _cachePc == pc)
        return _cacheKey;
    _cacheKey = _builder.buildKey(pc, _history.buffer(pc));
    _cachePc = pc;
    _cacheValid = true;
    return _cacheKey;
}

bool
TwoLevelPredictor::joinSweepKernel(SweepKernel &kernel)
{
    const SweepGroupSignature signature{
        _config.historySharing,
        _config.historyElement == HistoryElement::TargetAndAddress,
        _config.includeConditionalTargets};
    const SweepKernel::Binding binding =
        kernel.bind(signature, _config.pattern);
    _sweepGroup = binding.group;
    _sweepVariant = binding.variant;
    // State dedup: an equal-configuration column that joined earlier
    // is an identical state machine, so its per-record answers are
    // ours too. Correct because the kernel's drive order follows join
    // order: the primary's owning column predicts (and memoizes)
    // before any replica reads the memo, and the memo survives the
    // primary's update (the version bumps only at commit), so
    // replicas always see the pre-update prediction - exactly what
    // their own table would have produced.
    _sweepPrimary = kernel.dedupe(*this);
    return true;
}

Prediction
TwoLevelPredictor::lookup(Addr pc)
{
    const TableEntry *entry = ownTable().probe(currentKey(pc));
    if (!entry || !entry->valid)
        return Prediction{};
    return Prediction{true, entry->target,
                      static_cast<int>(entry->confidence.value())};
}

void
TwoLevelPredictor::primeSharedPrediction(Addr pc,
                                         const Prediction &pred)
{
    _predMemo = pred;
    _predMemoVersion = _sweepGroup->version();
    _predMemoPc = pc;
    _predMemoValid = true;
}

Prediction
TwoLevelPredictor::sharedPredict(Addr pc)
{
    if (_predMemoValid && _predMemoPc == pc &&
        _predMemoVersion == _sweepGroup->version()) {
        return _predMemo;
    }
    _predMemo = lookup(pc);
    _predMemoVersion = _sweepGroup->version();
    _predMemoPc = pc;
    _predMemoValid = true;
    return _predMemo;
}

Prediction
TwoLevelPredictor::predict(Addr pc)
{
    if (_sweepPrimary != nullptr)
        return _sweepPrimary->sharedPredict(pc);
    if (_replicated)
        return sharedPredict(pc);
    return lookup(pc);
}

void
TwoLevelPredictor::update(Addr pc, Addr actual)
{
    // Replica mode: the shared state is trained exactly once per
    // record, by the primary's own column.
    if (_sweepPrimary != nullptr)
        return;
    bool replaced = false;
    TableEntry &entry = ownTable().access(currentKey(pc), replaced);
    if (replaced || !entry.valid) {
        entry.target = actual;
        entry.valid = true;
    } else if (entry.target == actual) {
        entry.hysteresis.hit();
        entry.confidence.increment();
    } else {
        entry.confidence.decrement();
        if (!_config.hysteresis || entry.hysteresis.miss())
            entry.target = actual;
    }
    pushHistory(pc, actual);
}

void
TwoLevelPredictor::observeConditional(Addr pc, bool taken, Addr target)
{
    // The rejected section 3.3 variant: taken conditional targets
    // enter the history and push indirect targets out of the pattern.
    // (Replicas own no history either way: bound mode suppresses the
    // push and the kernel advances the shared group once per branch.)
    if (_sweepPrimary != nullptr)
        return;
    if (_config.includeConditionalTargets && taken)
        pushHistory(pc, target);
}

void
TwoLevelPredictor::pushHistory(Addr pc, Addr target)
{
    // Bound mode: the group history advances once per branch via
    // SweepKernel::commit()/observeConditional(), after every bound
    // predictor consumed the pre-push key - the same order a solo
    // predictor sees (update() reuses the key cached by predict()
    // before pushing).
    if (_sweepGroup != nullptr)
        return;
    if (_config.historyElement == HistoryElement::TargetAndAddress)
        _history.push(pc, pc);
    _history.push(pc, target);
    invalidateKeyCache();
}

void
TwoLevelPredictor::reset()
{
    if (_table)
        _table->reset();
    _history.reset();
    invalidateKeyCache();
    _predMemoValid = false;
}

std::string
TwoLevelPredictor::name() const
{
    return _config.describe();
}

} // namespace ibp
