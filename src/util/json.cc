#include "util/json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/logging.hh"

namespace ibp {

JsonParseError::JsonParseError(const std::string &message,
                               std::size_t offset)
    : std::runtime_error("json parse error at byte " +
                         std::to_string(offset) + ": " + message),
      _offset(offset)
{
}

Json
Json::array()
{
    Json json;
    json._type = Type::Array;
    return json;
}

Json
Json::object()
{
    Json json;
    json._type = Type::Object;
    return json;
}

bool
Json::asBool() const
{
    if (_type != Type::Bool)
        throw JsonError("json value is not a bool");
    return _bool;
}

double
Json::asNumber() const
{
    if (_type != Type::Number)
        throw JsonError("json value is not a number");
    return _number;
}

std::uint64_t
Json::asUint() const
{
    const double value = asNumber();
    if (value < 0.0)
        throw JsonError("json number is negative");
    return static_cast<std::uint64_t>(value);
}

const std::string &
Json::asString() const
{
    if (_type != Type::String)
        throw JsonError("json value is not a string");
    return _string;
}

std::size_t
Json::size() const
{
    if (_type == Type::Array)
        return _array.size();
    if (_type == Type::Object)
        return _object.size();
    throw JsonError("json value is not a container");
}

const Json &
Json::at(std::size_t index) const
{
    if (_type != Type::Array)
        throw JsonError("json value is not an array");
    if (index >= _array.size()) {
        throw JsonError("json index " + std::to_string(index) +
                        " out of range");
    }
    return _array[index];
}

void
Json::push(Json value)
{
    IBP_ASSERT(_type == Type::Array, "json value is not an array");
    _array.push_back(std::move(value));
}

const Json *
Json::find(const std::string &key) const
{
    if (_type != Type::Object)
        throw JsonError("json value is not an object");
    for (const auto &[name, value] : _object) {
        if (name == key)
            return &value;
    }
    return nullptr;
}

bool
Json::contains(const std::string &key) const
{
    return find(key) != nullptr;
}

const Json &
Json::at(const std::string &key) const
{
    if (const Json *value = find(key))
        return *value;
    throw JsonError("json object has no key '" + key + "'");
}

double
Json::numberOr(const std::string &key, double fallback) const
{
    const Json *value = find(key);
    if (!value || value->isNull())
        return fallback;
    return value->asNumber();
}

std::string
Json::stringOr(const std::string &key,
               const std::string &fallback) const
{
    const Json *value = find(key);
    if (!value || value->isNull())
        return fallback;
    return value->asString();
}

void
Json::set(const std::string &key, Json value)
{
    IBP_ASSERT(_type == Type::Object, "json value is not an object");
    for (auto &[name, existing] : _object) {
        if (name == key) {
            existing = std::move(value);
            return;
        }
    }
    _object.emplace_back(key, std::move(value));
}

const std::vector<std::pair<std::string, Json>> &
Json::members() const
{
    if (_type != Type::Object)
        throw JsonError("json value is not an object");
    return _object;
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace {

/**
 * Append @p value as "%.{p}g" at the smallest p in 1..16 whose text
 * strtod reads back exactly, else "%.17g" (integers below 1e15 as
 * "%.0f"). That text is a format: store entries, journals and their
 * checksums compare it byte for byte.
 *
 * p is the digit count of to_chars' shortest form, p*. No shorter
 * text round-trips, and the correctly rounded p*-digit text, which
 * to_chars prints in general form at precision p*, is the nearest
 * p*-digit decimal, so it round-trips whenever any p*-digit decimal
 * does. An exact power of two is the exception: its round-trip
 * interval is half as wide below the value as above, so the nearest
 * p*-digit decimal can fall outside it while a farther one is
 * inside. Those are read back with from_chars and widened until
 * they round-trip.
 */
void
appendNumber(std::string &out, double value)
{
    IBP_ASSERT(std::isfinite(value),
               "json cannot represent non-finite number");
    char buf[32];
    char *const last = buf + sizeof(buf);
    // Integers (the common case: branch counts, row indices) print
    // without a fractional part or exponent, as "%.0f" does.
    if (value == std::floor(value) && std::fabs(value) < 1e15) {
        const auto end =
            std::to_chars(buf, last, value, std::chars_format::fixed, 0);
        out.append(buf, end.ptr);
        return;
    }
    const auto shortest =
        std::to_chars(buf, last, value, std::chars_format::scientific);
    int precision = 0;
    for (const char *c = buf; c != shortest.ptr && *c != 'e'; ++c)
        precision += std::isdigit(static_cast<unsigned char>(*c)) != 0;
    int exponent = 0;
    const bool powerOfTwo =
        std::fabs(std::frexp(value, &exponent)) == 0.5;
    for (;; ++precision) {
        const auto end = std::to_chars(
            buf, last, value, std::chars_format::general, precision);
        double parsed = 0.0;
        if (!powerOfTwo || precision >= 17 ||
            (std::from_chars(buf, end.ptr, parsed).ptr == end.ptr &&
             parsed == value)) {
            out.append(buf, end.ptr);
            return;
        }
    }
}

} // namespace

void
Json::dumpTo(std::string &out, unsigned indent, unsigned depth) const
{
    // A newline and the indentation of nesting level @p level, written
    // straight into out (nothing when dumping compactly).
    const auto newline = [&out, indent](unsigned level) {
        if (indent) {
            out += '\n';
            out.append(static_cast<std::size_t>(indent) * level, ' ');
        }
    };
    switch (_type) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += _bool ? "true" : "false";
        break;
      case Type::Number:
        appendNumber(out, _number);
        break;
      case Type::String:
        out += '"';
        out += jsonEscape(_string);
        out += '"';
        break;
      case Type::Array:
        if (_array.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (std::size_t i = 0; i < _array.size(); ++i) {
            if (i)
                out += ',';
            newline(depth + 1);
            _array[i].dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += ']';
        break;
      case Type::Object:
        if (_object.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (std::size_t i = 0; i < _object.size(); ++i) {
            if (i)
                out += ',';
            newline(depth + 1);
            out += '"';
            out += jsonEscape(_object[i].first);
            out += indent ? "\": " : "\":";
            _object[i].second.dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += '}';
        break;
    }
}

std::string
Json::dump(unsigned indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

namespace {

/** Recursive-descent parser over a string_view-ish cursor. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : _text(text) {}

    Json
    parse()
    {
        Json value = parseValue();
        skipWhitespace();
        if (_pos != _text.size())
            fail("trailing characters after document");
        return value;
    }

  private:
    [[noreturn]] void
    fail(const std::string &message) const
    {
        throw JsonParseError(message, _pos);
    }

    void
    skipWhitespace()
    {
        while (_pos < _text.size() &&
               std::isspace(static_cast<unsigned char>(_text[_pos]))) {
            ++_pos;
        }
    }

    char
    peek()
    {
        if (_pos >= _text.size())
            fail("unexpected end of input");
        return _text[_pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++_pos;
    }

    bool
    consumeLiteral(const char *literal)
    {
        const std::size_t len = std::char_traits<char>::length(literal);
        if (_text.compare(_pos, len, literal) != 0)
            return false;
        _pos += len;
        return true;
    }

    Json
    parseValue()
    {
        skipWhitespace();
        switch (peek()) {
          case '{':
            return parseObject();
          case '[':
            return parseArray();
          case '"':
            return Json(parseString());
          case 't':
            if (!consumeLiteral("true"))
                fail("invalid literal");
            return Json(true);
          case 'f':
            if (!consumeLiteral("false"))
                fail("invalid literal");
            return Json(false);
          case 'n':
            if (!consumeLiteral("null"))
                fail("invalid literal");
            return Json();
          default:
            return parseNumber();
        }
    }

    Json
    parseObject()
    {
        expect('{');
        Json object = Json::object();
        skipWhitespace();
        if (peek() == '}') {
            ++_pos;
            return object;
        }
        while (true) {
            skipWhitespace();
            const std::string key = parseString();
            skipWhitespace();
            expect(':');
            object.set(key, parseValue());
            skipWhitespace();
            if (peek() == ',') {
                ++_pos;
                continue;
            }
            expect('}');
            return object;
        }
    }

    Json
    parseArray()
    {
        expect('[');
        Json array = Json::array();
        skipWhitespace();
        if (peek() == ']') {
            ++_pos;
            return array;
        }
        while (true) {
            array.push(parseValue());
            skipWhitespace();
            if (peek() == ',') {
                ++_pos;
                continue;
            }
            expect(']');
            return array;
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (_pos >= _text.size())
                fail("unterminated string");
            const char c = _text[_pos++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (_pos >= _text.size())
                fail("unterminated escape");
            const char escape = _text[_pos++];
            switch (escape) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case '/':
                out += '/';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'n':
                out += '\n';
                break;
              case 'r':
                out += '\r';
                break;
              case 't':
                out += '\t';
                break;
              case 'u': {
                if (_pos + 4 > _text.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = _text[_pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("invalid \\u escape digit");
                }
                // Encode the BMP code point as UTF-8 (surrogate
                // pairs are not needed by the artifact schema).
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 |
                                             ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
              }
              default:
                fail("invalid escape character");
            }
        }
    }

    Json
    parseNumber()
    {
        const std::size_t start = _pos;
        if (peek() == '-')
            ++_pos;
        while (_pos < _text.size() &&
               (std::isdigit(static_cast<unsigned char>(_text[_pos])) ||
                _text[_pos] == '.' || _text[_pos] == 'e' ||
                _text[_pos] == 'E' || _text[_pos] == '+' ||
                _text[_pos] == '-')) {
            ++_pos;
        }
        const std::string token = _text.substr(start, _pos - start);
        char *end = nullptr;
        const double value = std::strtod(token.c_str(), &end);
        if (end == token.c_str() ||
            end != token.c_str() + token.size()) {
            _pos = start;
            fail("invalid number");
        }
        return Json(value);
    }

    const std::string &_text;
    std::size_t _pos = 0;
};

} // namespace

Json
Json::parse(const std::string &text)
{
    return Parser(text).parse();
}

} // namespace ibp
