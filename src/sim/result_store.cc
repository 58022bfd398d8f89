#include "sim/result_store.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "core/spec_codec.hh"
#include "core/table_spec.hh"
#include "robust/atomic_file.hh"
#include "robust/cache_sweep.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace ibp {

namespace {

/** On-disk entry layout version (independent of the simulator
 *  version, which is part of the KEY): bump when the JSON shape or
 *  checksum rule changes, so old files quarantine cleanly. */
constexpr unsigned kEntryFormatVersion = 1;

std::unique_ptr<ResultStore> &
globalSlot()
{
    // Armed lazily from the environment so tools and tests that
    // never touch the option plumbing still get the store by
    // exporting IBP_RESULT_STORE=<dir>.
    static std::unique_ptr<ResultStore> store = [] {
        const char *env = std::getenv("IBP_RESULT_STORE");
        return (env && *env) ? std::make_unique<ResultStore>(env)
                             : nullptr;
    }();
    return store;
}

/**
 * Read @p path into @p text: one open, and one read for an entry
 * smaller than the buffer (all of them) plus the read that sees EOF.
 * False when the file cannot be opened; a read error keeps what was
 * read, which then fails validation like any truncated entry.
 */
bool
readWholeFile(const std::string &path, std::string &text)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return false;
    char buf[4096];
    ssize_t got;
    while ((got = ::read(fd, buf, sizeof(buf))) != 0) {
        if (got < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        text.append(buf, static_cast<std::size_t>(got));
    }
    ::close(fd);
    return true;
}

Json
payloadJson(const std::string &key, const StoredResult &result)
{
    Json payload = Json::object();
    payload.set("format", kEntryFormatVersion);
    payload.set("key", key);
    payload.set("benchmark", result.benchmark);
    payload.set("predictor", result.predictor);
    payload.set("counters", Json(result.hasCounters));
    if (result.hasCounters) {
        payload.set("branches", result.branches);
        payload.set("misses", result.misses);
        payload.set("no_prediction", result.noPrediction);
        payload.set("table_occupancy", result.tableOccupancy);
        payload.set("table_capacity", result.tableCapacity);
        payload.set("seconds", result.seconds);
        payload.set("group_seconds", result.groupSeconds);
        payload.set("shared_traversal", Json(result.sharedTraversal));
    }
    payload.set("miss_percent", result.missPercent);
    return payload;
}

/** Claims degrade to lockless on an I/O failure (see CellClaims);
 *  say so once per process. */
void
warnClaimsLockless(const std::string &why)
{
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true))
        warn("result store claims degrade to lockless: %s", why.c_str());
}

} // namespace

CellClaims::CellClaims(CellClaims &&other) noexcept
    : _fd(std::exchange(other._fd, -1)), _held(std::move(other._held))
{
    other._held.clear();
}

CellClaims &
CellClaims::operator=(CellClaims &&other) noexcept
{
    if (this != &other) {
        release();
        _fd = std::exchange(other._fd, -1);
        _held = std::move(other._held);
        other._held.clear();
    }
    return *this;
}

CellClaims::~CellClaims()
{
    release();
}

bool
CellClaims::tryClaim(const std::string &key)
{
    if (_fd < 0)
        return true; // lockless (see the class comment)
    // One byte per cell, below 2^62 so l_start + l_len never
    // overflows off_t.
    const auto offset =
        static_cast<std::int64_t>(specBytesHash(key) >> 2);
    if (std::find(_held.begin(), _held.end(), offset) != _held.end())
        return false;
    struct flock lock = {};
    lock.l_type = F_WRLCK;
    lock.l_whence = SEEK_SET;
    lock.l_start = static_cast<off_t>(offset);
    lock.l_len = 1;
    if (::fcntl(_fd, F_OFD_SETLK, &lock) == 0) {
        _held.push_back(offset);
        return true;
    }
    // EAGAIN/EACCES: a live peer holds it. Anything else (ENOLCK)
    // degrades this cell to lockless.
    if (errno == EAGAIN || errno == EACCES)
        return false;
    warnClaimsLockless(std::string("cannot lock: ") + std::strerror(errno));
    return true;
}

void
CellClaims::release()
{
    // Closing the open file description drops all of its locks.
    if (_fd >= 0)
        ::close(_fd);
    _fd = -1;
    _held.clear();
}

CellClaim::CellClaim(CellClaim &&other) noexcept
    : _state(std::exchange(other._state, State::None)),
      _claims(std::move(other._claims))
{
}

CellClaim &
CellClaim::operator=(CellClaim &&other) noexcept
{
    if (this != &other) {
        _claims = std::move(other._claims);
        _state = std::exchange(other._state, State::None);
    }
    return *this;
}

void
CellClaim::release()
{
    _claims.release();
    _state = State::None;
}

CellClaims
ResultStore::claims() const
{
    std::error_code ec;
    std::filesystem::create_directories(_directory, ec);
    const std::string path = _directory + "/claims.lock";
    const int fd =
        ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd < 0) {
        warnClaimsLockless("cannot open '" + path +
                           "': " + std::strerror(errno));
    }
    return CellClaims(fd);
}

CellClaim
ResultStore::tryClaim(const std::string &key) const
{
    CellClaim claim;
    claim._claims = claims();
    claim._state = claim._claims.tryClaim(key) ? CellClaim::State::Acquired
                                               : CellClaim::State::Busy;
    if (claim.busy())
        claim._claims.release();
    return claim;
}

ResultStore::ResultStore(std::string directory)
    : _directory(std::move(directory))
{
}

ResultStore *
ResultStore::global()
{
    return globalSlot().get();
}

void
ResultStore::configureGlobal(const std::string &directory)
{
    globalSlot() = directory.empty()
                       ? nullptr
                       : std::make_unique<ResultStore>(directory);
}

std::uint64_t
ResultStore::effectiveSimulatorVersion()
{
    if (const char *env = std::getenv("IBP_RESULT_STORE_VERSION")) {
        if (*env) {
            char *end = nullptr;
            const unsigned long long parsed =
                std::strtoull(env, &end, 10);
            if (end != env && *end == '\0')
                return static_cast<std::uint64_t>(parsed);
        }
    }
    return kSimulatorVersion;
}

std::string
ResultStore::cellKey(const std::string &trace_key,
                     std::uint64_t spec_hash)
{
    // Canonical pipe-delimited description, hashed with the same
    // FNV-1a the spec codec uses. The trace key (which already
    // carries the benchmark name) prefixes the file name so a store
    // directory stays human-debuggable.
    const std::string description =
        "sim=" + std::to_string(effectiveSimulatorVersion()) +
        "|trace=" + trace_key + "|spec=" + specHashHex(spec_hash) +
        "|impl=" + tableImplName();
    return trace_key + "-" + specHashHex(specBytesHash(description));
}

std::string
ResultStore::pathFor(const std::string &key) const
{
    return _directory + "/" + key + ".json";
}

bool
ResultStore::contains(const std::string &key) const
{
    std::error_code ec;
    return std::filesystem::exists(pathFor(key), ec) && !ec;
}

ResultStore::LoadOutcome
ResultStore::load(const std::string &key) const
{
    const std::string path = pathFor(key);

    std::string text;
    if (!readWholeFile(path, text))
        return LoadOutcome{LoadStatus::Miss, {}};

    // Validate BEFORE trusting anything: parse, entry format,
    // checksum over the re-dumped payload, key echo. Any failure
    // quarantines the file (pending.json.corrupt policy) so the
    // evidence survives while the cell re-simulates.
    const auto quarantine = [&](const char *why) {
        std::error_code ec;
        std::filesystem::rename(path, path + ".corrupt", ec);
        warn("result store entry '%s' %s; quarantined to %s.corrupt",
             path.c_str(), why, path.c_str());
        return LoadOutcome{LoadStatus::Invalidated, {}};
    };

    Json entry;
    try {
        entry = Json::parse(text);
    } catch (const JsonParseError &) {
        return quarantine("is not valid JSON");
    }
    // Well-formed JSON of the wrong shape (a top-level array, a
    // numeric checksum, counters with a field missing) makes a typed
    // accessor throw mid-check; that entry is quarantined too.
    try {
        if (!entry.contains("payload") || !entry.contains("checksum"))
            return quarantine("is missing payload/checksum");
        const Json &payload = entry.at("payload");
        if (entry.at("checksum").asString() !=
            specHashHex(specBytesHash(payload.dump()))) {
            return quarantine("failed its checksum");
        }
        if (static_cast<unsigned>(payload.numberOr("format", 0)) !=
            kEntryFormatVersion) {
            return quarantine("has a foreign entry format");
        }
        if (payload.stringOr("key", "") != key)
            return quarantine("echoes a foreign key");

        StoredResult result;
        result.benchmark = payload.stringOr("benchmark", "");
        result.predictor = payload.stringOr("predictor", "");
        result.hasCounters = payload.contains("counters") &&
                             payload.at("counters").asBool();
        if (result.hasCounters) {
            if (!payload.contains("branches"))
                return quarantine("claims counters it does not carry");
            result.branches = payload.at("branches").asUint();
            result.misses = payload.at("misses").asUint();
            result.noPrediction = payload.at("no_prediction").asUint();
            result.tableOccupancy =
                payload.at("table_occupancy").asUint();
            result.tableCapacity = payload.at("table_capacity").asUint();
            result.seconds = payload.numberOr("seconds", 0.0);
            result.groupSeconds = payload.numberOr("group_seconds", 0.0);
            result.sharedTraversal =
                payload.contains("shared_traversal") &&
                payload.at("shared_traversal").asBool();
        }
        result.missPercent = payload.numberOr("miss_percent", 0.0);
        return LoadOutcome{LoadStatus::Hit, std::move(result)};
    } catch (const JsonError &) {
        return quarantine("has the wrong shape");
    }
}

Result<void>
ResultStore::store(const std::string &key,
                   const StoredResult &result) const
{
    return std::move(storeAll({Entry{key, result}}).front());
}

std::vector<Result<void>>
ResultStore::storeAll(const std::vector<Entry> &entries) const
{
    std::vector<std::string> bodies;
    bodies.reserve(entries.size());
    for (const Entry &stored : entries) {
        Json payload = payloadJson(stored.key, stored.result);
        Json entry = Json::object();
        entry.set("checksum",
                  specHashHex(specBytesHash(payload.dump())));
        entry.set("payload", std::move(payload));
        bodies.push_back(entry.dump(2) + "\n");
    }
    std::vector<AtomicFileWrite> files;
    files.reserve(entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i)
        files.push_back({pathFor(entries[i].key), bodies[i]});
    std::vector<Result<void>> written = writeFilesAtomic(files);
    for (const auto &outcome : written) {
        if (outcome.ok()) {
            maybeSweepCacheDirectory(_directory);
            break;
        }
    }
    return written;
}

} // namespace ibp
