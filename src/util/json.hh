/**
 * @file
 * Minimal JSON value type with a writer and a recursive-descent
 * parser.
 *
 * The report subsystem persists run artifacts (result tables,
 * telemetry, environment manifests) as JSON so external tooling and
 * the baseline regression gate can consume them without linking
 * against libibp. Only the subset of JSON the artifact schema needs
 * is implemented: null, bool, finite doubles, strings, arrays, and
 * objects that preserve insertion order. No external dependency is
 * pulled in.
 */

#ifndef IBP_UTIL_JSON_HH
#define IBP_UTIL_JSON_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace ibp {

/**
 * Thrown by the typed accessors on a type mismatch or a missing
 * key/index. Parsing external JSON (artifacts, checkpoints) must be
 * able to recover from schema drift, so these are exceptions rather
 * than panics; code that has already validated the shape may treat
 * one escaping as a bug.
 */
class JsonError : public std::runtime_error
{
  public:
    explicit JsonError(const std::string &message)
        : std::runtime_error(message)
    {
    }
};

/** Thrown by Json::parse on malformed input. */
class JsonParseError : public std::runtime_error
{
  public:
    JsonParseError(const std::string &message, std::size_t offset);

    /** Byte offset into the parsed text where the error was found. */
    std::size_t offset() const { return _offset; }

  private:
    std::size_t _offset;
};

/**
 * A JSON document node. Numbers are stored as doubles (the artifact
 * schema never needs integers beyond 2^53). Object keys keep their
 * insertion order so written artifacts stay human-diffable.
 */
class Json
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    Json() : _type(Type::Null) {}
    Json(bool value) : _type(Type::Bool), _bool(value) {}
    Json(double value) : _type(Type::Number), _number(value) {}
    Json(int value) : Json(static_cast<double>(value)) {}
    Json(unsigned value) : Json(static_cast<double>(value)) {}
    Json(std::uint64_t value) : Json(static_cast<double>(value)) {}
    Json(std::string value)
        : _type(Type::String), _string(std::move(value))
    {
    }
    Json(const char *value) : Json(std::string(value)) {}

    static Json array();
    static Json object();

    Type type() const { return _type; }
    bool isNull() const { return _type == Type::Null; }
    bool isNumber() const { return _type == Type::Number; }
    bool isString() const { return _type == Type::String; }
    bool isArray() const { return _type == Type::Array; }
    bool isObject() const { return _type == Type::Object; }

    /** Typed accessors; throw JsonError on type mismatch. */
    bool asBool() const;
    double asNumber() const;
    std::uint64_t asUint() const;
    const std::string &asString() const;

    /** Array access. */
    std::size_t size() const;
    const Json &at(std::size_t index) const;
    void push(Json value);

    /** Object access. */
    bool contains(const std::string &key) const;
    /** Throws JsonError when @p key is absent; use contains()
     * first. */
    const Json &at(const std::string &key) const;
    /** Returns @p fallback when @p key is absent or null. */
    double numberOr(const std::string &key, double fallback) const;
    std::string stringOr(const std::string &key,
                         const std::string &fallback) const;
    void set(const std::string &key, Json value);
    const std::vector<std::pair<std::string, Json>> &members() const;

    /**
     * Serialise. @p indent > 0 pretty-prints with that many spaces
     * per level; 0 emits a compact single line.
     */
    std::string dump(unsigned indent = 0) const;

    /** Parse @p text; throws JsonParseError on malformed input. */
    static Json parse(const std::string &text);

  private:
    /** The member named @p key, or nullptr; throws JsonError when
     *  this is not an object. */
    const Json *find(const std::string &key) const;
    void dumpTo(std::string &out, unsigned indent,
                unsigned depth) const;

    Type _type;
    bool _bool = false;
    double _number = 0.0;
    std::string _string;
    std::vector<Json> _array;
    std::vector<std::pair<std::string, Json>> _object;
};

/** Escape a string for embedding in JSON (no surrounding quotes). */
std::string jsonEscape(const std::string &text);

} // namespace ibp

#endif // IBP_UTIL_JSON_HH
