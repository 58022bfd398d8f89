/**
 * @file
 * Tests of the minimal JSON value type: construction, access,
 * serialisation, parsing, and round-tripping.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>

#include "util/json.hh"

namespace ibp {
namespace {

/**
 * The number text the writer has always produced, by its original
 * method: integers below 1e15 as "%.0f", anything else at the first
 * "%.{p}g" (p = 1..16) that strtod reads back exactly, else "%.17g".
 * Stored entries and journal lines are checksummed and compared as
 * text, so Json::dump() must keep matching it byte for byte.
 */
std::string
referenceNumberText(double value)
{
    char buf[40];
    if (value == std::floor(value) && std::fabs(value) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%.0f", value);
        return buf;
    }
    for (int precision = 1; precision < 17; ++precision) {
        std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
        if (std::strtod(buf, nullptr) == value)
            return buf;
    }
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

TEST(JsonTest, ScalarsRoundTrip)
{
    EXPECT_EQ(Json().dump(), "null");
    EXPECT_EQ(Json(true).dump(), "true");
    EXPECT_EQ(Json(false).dump(), "false");
    EXPECT_EQ(Json(42).dump(), "42");
    EXPECT_EQ(Json(24.91).dump(), "24.91");
    EXPECT_EQ(Json("hi").dump(), "\"hi\"");

    EXPECT_TRUE(Json::parse("null").isNull());
    EXPECT_TRUE(Json::parse("true").asBool());
    EXPECT_DOUBLE_EQ(Json::parse("-3.5e2").asNumber(), -350.0);
    EXPECT_EQ(Json::parse("\"x\"").asString(), "x");
}

TEST(JsonTest, NumbersSurviveDumpParse)
{
    for (const double value :
         {0.0, 1.0, -1.0, 24.91, 0.1, 1e-9, 123456789.123456,
          1.0 / 3.0, 2e15, 33414617.5}) {
        const Json parsed = Json::parse(Json(value).dump());
        EXPECT_EQ(parsed.asNumber(), value) << value;
    }
}

TEST(JsonTest, NumberTextMatchesTheSnprintfLoopByteForByte)
{
    unsigned compared = 0;
    unsigned mismatched = 0;
    std::string firstMismatch;
    const auto expectSame = [&](double value) {
        ++compared;
        const std::string written = Json(value).dump();
        const std::string reference = referenceNumberText(value);
        if (written != reference && mismatched++ == 0)
            firstMismatch = written + " where the loop wrote " + reference;
    };

    for (const double value :
         {0.0, -0.0, 1e15, 1e15 - 1, 1e15 + 1, 999999999999999.0,
          -1e15, 0.1, -0.1, 1.0 / 3.0, 0.1 + 0.2, 5e-324, -5e-324,
          DBL_MIN, DBL_MAX, -DBL_MAX, 1e21, 1e-7, 123456789.125,
          100.0 * 678 / 12345}) {
        expectSame(value);
    }
    for (int exp10 = -12; exp10 <= 18; ++exp10) {
        expectSame(std::pow(10.0, exp10));
        expectSame(std::strtod(("1e" + std::to_string(exp10)).c_str(),
                               nullptr));
    }
    // Exact powers of two have a round-trip interval half as wide
    // below the value as above it - the one place where the nearest
    // shortest-length decimal may not read back.
    for (int exp2 = -1074; exp2 <= 1023; ++exp2) {
        expectSame(std::ldexp(1.0, exp2));
        expectSame(-std::ldexp(1.0, exp2));
    }
    // Fixed-seed samples: arbitrary finite bit patterns (every
    // exponent, subnormals included) and values shaped like the
    // percentages and seconds the artifacts carry. The reference
    // costs ~20 us a value, so the samples stay small enough for a
    // sub-second test.
    std::mt19937_64 rng(20261018);
    std::uniform_real_distribution<double> percent(0.0, 100.0);
    for (unsigned i = 0; i < 16384; ++i) {
        const std::uint64_t bits = rng();
        double value;
        std::memcpy(&value, &bits, sizeof(value));
        if (std::isfinite(value))
            expectSame(value);
        expectSame(percent(rng));
    }
    EXPECT_GT(compared, 36000u);
    EXPECT_EQ(mismatched, 0u) << "first: " << firstMismatch;
}

TEST(JsonTest, LargeCountsKeepIntegerPrecision)
{
    const std::uint64_t branches = (1ULL << 51) + 12345;
    const Json parsed = Json::parse(Json(branches).dump());
    EXPECT_EQ(parsed.asUint(), branches);
}

TEST(JsonTest, ObjectsPreserveInsertionOrder)
{
    Json object = Json::object();
    object.set("zeta", 1);
    object.set("alpha", 2);
    EXPECT_EQ(object.dump(), "{\"zeta\":1,\"alpha\":2}");
    // Overwriting keeps the original position.
    object.set("zeta", 3);
    EXPECT_EQ(object.dump(), "{\"zeta\":3,\"alpha\":2}");
}

TEST(JsonTest, NestedStructuresRoundTrip)
{
    Json root = Json::object();
    Json cells = Json::array();
    Json row = Json::array();
    row.push(Json(28.1));
    row.push(Json()); // empty cell
    cells.push(std::move(row));
    root.set("cells", std::move(cells));
    root.set("quick", true);

    const Json parsed = Json::parse(root.dump(2));
    EXPECT_TRUE(parsed.at("quick").asBool());
    const Json &cell_row = parsed.at("cells").at(0);
    EXPECT_DOUBLE_EQ(cell_row.at(0).asNumber(), 28.1);
    EXPECT_TRUE(cell_row.at(1).isNull());
}

TEST(JsonTest, StringEscapesRoundTrip)
{
    const std::string nasty = "a\"b\\c\nd\te\x01f";
    const Json parsed = Json::parse(Json(nasty).dump());
    EXPECT_EQ(parsed.asString(), nasty);
    EXPECT_EQ(Json::parse("\"\\u0041\\u00e9\"").asString(),
              "A\xc3\xa9");
}

TEST(JsonTest, AccessHelpers)
{
    Json object = Json::object();
    object.set("name", "fig02");
    object.set("scale", 0.25);
    object.set("none", Json());
    EXPECT_TRUE(object.contains("name"));
    EXPECT_FALSE(object.contains("missing"));
    EXPECT_EQ(object.stringOr("name", "x"), "fig02");
    EXPECT_EQ(object.stringOr("missing", "x"), "x");
    EXPECT_DOUBLE_EQ(object.numberOr("scale", 1.0), 0.25);
    EXPECT_DOUBLE_EQ(object.numberOr("none", 7.0), 7.0);
}

TEST(JsonTest, MalformedInputThrows)
{
    EXPECT_THROW(Json::parse(""), JsonParseError);
    EXPECT_THROW(Json::parse("{"), JsonParseError);
    EXPECT_THROW(Json::parse("[1,]"), JsonParseError);
    EXPECT_THROW(Json::parse("\"unterminated"), JsonParseError);
    EXPECT_THROW(Json::parse("tru"), JsonParseError);
    EXPECT_THROW(Json::parse("1.2.3"), JsonParseError);
    EXPECT_THROW(Json::parse("{} extra"), JsonParseError);
}

TEST(JsonTest, ParseErrorReportsOffset)
{
    try {
        Json::parse("[1, x]");
        FAIL() << "expected JsonParseError";
    } catch (const JsonParseError &error) {
        EXPECT_EQ(error.offset(), 4u);
    }
}

} // namespace
} // namespace ibp
