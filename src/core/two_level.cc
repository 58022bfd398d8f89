#include "core/two_level.hh"

#include <sstream>

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
        _table = makeTable(_config.table, _config.entryCounters(),
                           _tableImpl);
    }
    return *_table;
}

Key
TwoLevelPredictor::currentKey(Addr pc)
{
    if (_cacheValid && _cachePc == pc)
        return _cacheKey;
    _cacheKey = _builder.buildKey(pc, _history.buffer(pc));
    _cachePc = pc;
    _cacheValid = true;
    return _cacheKey;
}

Prediction
TwoLevelPredictor::predict(Addr pc)
{
    return twoLevelPrediction(ownTable().probe(currentKey(pc)));
}

void
TwoLevelPredictor::update(Addr pc, Addr actual)
{
    bool replaced = false;
    TableEntry &entry = ownTable().access(currentKey(pc), replaced);
    trainTwoLevelEntry(entry, replaced, actual, _config.hysteresis);
    pushHistory(pc, actual);
}

void
TwoLevelPredictor::observeConditional(Addr pc, bool taken, Addr target)
{
    // The rejected section 3.3 variant: taken conditional targets
    // enter the history and push indirect targets out of the pattern.
    if (_config.includeConditionalTargets && taken)
        pushHistory(pc, target);
}

void
TwoLevelPredictor::pushHistory(Addr pc, Addr target)
{
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
}

std::string
TwoLevelPredictor::name() const
{
    return _config.describe();
}

} // namespace ibp
