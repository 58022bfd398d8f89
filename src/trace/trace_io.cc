#include "trace/trace_io.hh"

#include <array>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <new>
#include <ostream>
#include <sstream>

namespace ibp {

namespace {

constexpr std::array<char, 4> binaryMagic = {'I', 'B', 'P', 'T'};
constexpr std::uint32_t binaryVersion = 1;

/** Internal helpers throw RunException; the public entry points
 * catch it at the format boundary and return a Result. */
[[noreturn]] void
badTrace(const std::string &message)
{
    throw RunException(RunError::permanent(message));
}

void
writeU32(std::ostream &out, std::uint32_t value)
{
    // Explicit little-endian byte order for portability.
    const std::array<char, 4> bytes = {
        static_cast<char>(value & 0xff),
        static_cast<char>((value >> 8) & 0xff),
        static_cast<char>((value >> 16) & 0xff),
        static_cast<char>((value >> 24) & 0xff),
    };
    out.write(bytes.data(), bytes.size());
}

void
writeU64(std::ostream &out, std::uint64_t value)
{
    writeU32(out, static_cast<std::uint32_t>(value));
    writeU32(out, static_cast<std::uint32_t>(value >> 32));
}

std::uint32_t
readU32(std::istream &in)
{
    std::array<unsigned char, 4> bytes{};
    in.read(reinterpret_cast<char *>(bytes.data()), bytes.size());
    if (!in)
        badTrace("truncated binary trace");
    return static_cast<std::uint32_t>(bytes[0]) |
           static_cast<std::uint32_t>(bytes[1]) << 8 |
           static_cast<std::uint32_t>(bytes[2]) << 16 |
           static_cast<std::uint32_t>(bytes[3]) << 24;
}

std::uint64_t
readU64(std::istream &in)
{
    const std::uint64_t lo = readU32(in);
    const std::uint64_t hi = readU32(in);
    return lo | (hi << 32);
}

BranchKind
kindFromByte(unsigned byte)
{
    if (byte > static_cast<unsigned>(BranchKind::Return)) {
        badTrace("bad branch kind " + std::to_string(byte) +
                 " in trace");
    }
    return static_cast<BranchKind>(byte);
}

BranchKind
kindFromName(const std::string &name)
{
    for (unsigned k = 0; k <= static_cast<unsigned>(BranchKind::Return);
         ++k) {
        const auto kind = static_cast<BranchKind>(k);
        if (name == branchKindName(kind))
            return kind;
    }
    badTrace("bad branch kind '" + name + "' in text trace");
}

Trace
readTraceBinaryOrThrow(std::istream &in)
{
    std::array<char, 4> magic{};
    in.read(magic.data(), magic.size());
    if (!in || magic != binaryMagic)
        badTrace("not a libibp binary trace (bad magic)");
    const std::uint32_t version = readU32(in);
    if (version != binaryVersion) {
        badTrace("unsupported trace version " +
                 std::to_string(version));
    }
    const std::uint64_t seed = readU64(in);
    const std::uint32_t name_len = readU32(in);
    if (name_len > 4096) {
        badTrace("implausible trace name length " +
                 std::to_string(name_len));
    }
    std::string name(name_len, '\0');
    in.read(name.data(), name_len);
    if (!in)
        badTrace("truncated binary trace");
    const std::uint64_t count = readU64(in);
    // The count comes straight from the file, so validate it against
    // the bytes actually left in the stream before reserve() turns a
    // corrupt header into a multi-exabyte allocation. Each record is
    // 9 bytes on disk (pc + target + flags).
    constexpr std::uint64_t record_bytes = 9;
    const auto body_start = in.tellg();
    if (body_start != std::istream::pos_type(-1)) {
        in.seekg(0, std::ios::end);
        const auto stream_end = in.tellg();
        in.seekg(body_start);
        if (stream_end != std::istream::pos_type(-1) &&
            count > static_cast<std::uint64_t>(
                        stream_end - body_start) /
                        record_bytes) {
            badTrace("trace record count " + std::to_string(count) +
                     " exceeds the bytes remaining in the stream");
        }
    }

    Trace trace(name);
    trace.setSeed(seed);
    try {
        trace.reserve(count);
    } catch (const std::bad_alloc &) {
        // Unseekable streams skip the size check above; a count too
        // large to reserve is still corrupt input, not an abort.
        badTrace("trace record count " + std::to_string(count) +
                 " is too large to allocate");
    }
    for (std::uint64_t i = 0; i < count; ++i) {
        BranchRecord record;
        record.pc = readU32(in);
        record.target = readU32(in);
        const int flags = in.get();
        if (flags < 0)
            badTrace("truncated binary trace");
        record.kind = kindFromByte(static_cast<unsigned>(flags) & 0x7f);
        record.taken = (static_cast<unsigned>(flags) & 0x80u) != 0;
        trace.append(record);
    }
    // The count says where the trace ends; anything after it is
    // damage, not a second trace.
    if (in.peek() != std::istream::traits_type::eof())
        badTrace("trailing bytes after binary trace");
    return trace;
}

/** strtoull wrapper that rejects garbage instead of throwing or
 * silently parsing a prefix, and rejects values that do not fit an
 * Addr instead of truncating them to a different address. */
Addr
parseAddr(const std::string &text, std::uint64_t line_no)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long value =
        std::strtoull(text.c_str(), &end, 0);
    if (end == text.c_str() || *end != '\0') {
        badTrace("malformed address '" + text + "' on text trace line " +
                 std::to_string(line_no));
    }
    if (errno == ERANGE ||
        value > std::numeric_limits<Addr>::max()) {
        badTrace("address '" + text + "' out of range on text trace "
                 "line " + std::to_string(line_no));
    }
    return static_cast<Addr>(value);
}

Trace
readTraceTextOrThrow(std::istream &in)
{
    Trace trace;
    std::string line;
    std::uint64_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty())
            continue;
        if (line[0] == '#') {
            std::istringstream meta(line.substr(1));
            std::string key;
            meta >> key;
            if (key == "name") {
                // The writer emits the full name, which may contain
                // spaces; take the rest of the line, not one token.
                std::string name;
                std::getline(meta, name);
                const auto start = name.find_first_not_of(' ');
                trace.setName(start == std::string::npos
                                  ? ""
                                  : name.substr(start));
            } else if (key == "seed") {
                std::uint64_t seed = 0;
                meta >> seed;
                trace.setSeed(seed);
            }
            continue;
        }
        std::istringstream fields(line);
        std::string kind_name;
        std::string pc_str, target_str;
        int taken = 1;
        if (!(fields >> kind_name >> pc_str >> target_str >> taken)) {
            badTrace("malformed text trace line " +
                     std::to_string(line_no) + ": '" + line + "'");
        }
        BranchRecord record;
        record.kind = kindFromName(kind_name);
        record.pc = parseAddr(pc_str, line_no);
        record.target = parseAddr(target_str, line_no);
        record.taken = taken != 0;
        trace.append(record);
    }
    return trace;
}

} // namespace

Result<void>
writeTraceBinary(const Trace &trace, std::ostream &out)
{
    out.write(binaryMagic.data(), binaryMagic.size());
    writeU32(out, binaryVersion);
    writeU64(out, trace.seed());
    writeU32(out, static_cast<std::uint32_t>(trace.name().size()));
    out.write(trace.name().data(),
              static_cast<std::streamsize>(trace.name().size()));
    writeU64(out, trace.size());
    for (const auto &record : trace) {
        writeU32(out, record.pc);
        writeU32(out, record.target);
        const unsigned flags = static_cast<unsigned>(record.kind) |
                               (record.taken ? 0x80u : 0u);
        out.put(static_cast<char>(flags));
    }
    if (!out)
        return RunError::permanent("error writing binary trace");
    return Result<void>();
}

Result<Trace>
readTraceBinary(std::istream &in)
{
    try {
        return readTraceBinaryOrThrow(in);
    } catch (const RunException &exception) {
        return exception.error();
    } catch (const std::bad_alloc &) {
        // A corrupt input must never escape the Result boundary as
        // an allocation failure and abort the process.
        return RunError::permanent(
            "out of memory reading binary trace");
    }
}

Result<void>
writeTraceText(const Trace &trace, std::ostream &out)
{
    out << "# ibp-trace v1\n";
    out << "# name " << trace.name() << '\n';
    out << "# seed " << trace.seed() << '\n';
    for (const auto &record : trace) {
        out << branchKindName(record.kind) << ' ' << std::hex
            << "0x" << record.pc << " 0x" << record.target << std::dec
            << ' ' << (record.taken ? 1 : 0) << '\n';
    }
    if (!out)
        return RunError::permanent("error writing text trace");
    return Result<void>();
}

Result<Trace>
readTraceText(std::istream &in)
{
    try {
        return readTraceTextOrThrow(in);
    } catch (const RunException &exception) {
        return exception.error();
    } catch (const std::bad_alloc &) {
        return RunError::permanent(
            "out of memory reading text trace");
    }
}

Result<void>
saveTrace(const Trace &trace, const std::string &path)
{
    const bool binary = path.size() >= 5 &&
                        path.compare(path.size() - 5, 5, ".ibpt") == 0;
    std::ofstream out(path,
                      binary ? std::ios::binary : std::ios::out);
    if (!out) {
        return RunError::permanent("cannot open '" + path +
                                   "' for writing");
    }
    return binary ? writeTraceBinary(trace, out)
                  : writeTraceText(trace, out);
}

Result<Trace>
loadTrace(const std::string &path)
{
    const bool binary = path.size() >= 5 &&
                        path.compare(path.size() - 5, 5, ".ibpt") == 0;
    std::ifstream in(path, binary ? std::ios::binary : std::ios::in);
    if (!in) {
        return RunError::permanent("cannot open '" + path +
                                   "' for reading");
    }
    Result<Trace> result =
        binary ? readTraceBinary(in) : readTraceText(in);
    if (!result.ok()) {
        return RunError::permanent(path + ": " +
                                   result.error().message);
    }
    return result;
}

} // namespace ibp
