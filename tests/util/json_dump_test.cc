/**
 * @file
 * Json::dump() layout pinned byte for byte on deep nesting: stores,
 * journals and artifacts are written through it and compared as
 * text, so neither the indented nor the compact form may drift.
 */

#include <gtest/gtest.h>

#include <string>

#include "util/json.hh"

namespace ibp {
namespace {

/** Levels @p depth..9, objects at even depths and arrays at odd
 *  ones, each with a member before and after its child; level 9's
 *  child is an empty array. */
Json
nested(unsigned depth)
{
    if (depth % 2 == 0) {
        Json object = Json::object();
        object.set("depth", depth);
        object.set("child", nested(depth + 1));
        object.set("tag", "o" + std::to_string(depth));
        return object;
    }
    Json array = Json::array();
    array.push(depth);
    array.push(depth + 1 < 10 ? nested(depth + 1) : Json::array());
    array.push("a" + std::to_string(depth));
    return array;
}

TEST(JsonDumpTest, TenDeepNestingIsPinnedByteForByte)
{
    const Json value = nested(0);
    EXPECT_EQ(value.dump(0), R"({"depth":0,"child":[1,{"depth":2,"child":[3,{"depth":4,"child":[5,{"depth":6,"child":[7,{"depth":8,"child":[9,[],"a9"],"tag":"o8"},"a7"],"tag":"o6"},"a5"],"tag":"o4"},"a3"],"tag":"o2"},"a1"],"tag":"o0"})");
    EXPECT_EQ(value.dump(2), R"({
  "depth": 0,
  "child": [
    1,
    {
      "depth": 2,
      "child": [
        3,
        {
          "depth": 4,
          "child": [
            5,
            {
              "depth": 6,
              "child": [
                7,
                {
                  "depth": 8,
                  "child": [
                    9,
                    [],
                    "a9"
                  ],
                  "tag": "o8"
                },
                "a7"
              ],
              "tag": "o6"
            },
            "a5"
          ],
          "tag": "o4"
        },
        "a3"
      ],
      "tag": "o2"
    },
    "a1"
  ],
  "tag": "o0"
})");
}

} // namespace
} // namespace ibp
