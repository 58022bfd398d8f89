/**
 * @file
 * Tests of the ResultTable renderer used by every bench binary.
 */

#include <gtest/gtest.h>

#include "util/format.hh"

namespace ibp {
namespace {

ResultTable
sample()
{
    ResultTable table("Demo", "bench");
    table.addColumn("a");
    table.addColumn("b");
    table.addRow("x");
    table.addRow("y");
    table.set(0, 0, 1.234);
    table.set(1, 1, 56.789);
    return table;
}

TEST(ResultTable, DimensionsAndLabels)
{
    const ResultTable table = sample();
    EXPECT_EQ(table.numRows(), 2u);
    EXPECT_EQ(table.numCols(), 2u);
    EXPECT_EQ(table.rowLabel(1), "y");
    EXPECT_EQ(table.colLabel(0), "a");
}

TEST(ResultTable, GetReturnsSetValuesAndEmptyForUnset)
{
    const ResultTable table = sample();
    ASSERT_TRUE(table.get(0, 0).has_value());
    EXPECT_DOUBLE_EQ(*table.get(0, 0), 1.234);
    EXPECT_FALSE(table.get(0, 1).has_value());
}

TEST(ResultTable, ClearBlanksACell)
{
    ResultTable table = sample();
    table.set(0, 0, 1.5);
    table.clear(0, 0);
    EXPECT_FALSE(table.get(0, 0).has_value());
}

TEST(ResultTable, SetByLabelCreatesRowsAndColumns)
{
    ResultTable table("T", "r");
    table.set("row1", "colA", 1.0);
    table.set("row2", "colB", 2.0);
    table.set("row1", "colB", 3.0);
    EXPECT_EQ(table.numRows(), 2u);
    EXPECT_EQ(table.numCols(), 2u);
    EXPECT_DOUBLE_EQ(*table.get("row1", "colB"), 3.0);
    EXPECT_FALSE(table.get("row2", "colA").has_value());
    EXPECT_FALSE(table.get("nope", "colA").has_value());
}

TEST(ResultTable, TextRenderingAlignsAndMarksMissing)
{
    const std::string text = sample().toText();
    EXPECT_NE(text.find("== Demo =="), std::string::npos);
    EXPECT_NE(text.find("1.23"), std::string::npos);
    EXPECT_NE(text.find("56.79"), std::string::npos);
    EXPECT_NE(text.find('-'), std::string::npos);
}

TEST(ResultTable, CsvRendering)
{
    const std::string csv = sample().toCsv();
    EXPECT_NE(csv.find("bench,a,b"), std::string::npos);
    EXPECT_NE(csv.find("x,1.23,"), std::string::npos);
    EXPECT_NE(csv.find("y,,56.79"), std::string::npos);
}

TEST(ResultTable, MarkdownRendering)
{
    const std::string md = sample().toMarkdown();
    EXPECT_NE(md.find("| bench | a | b |"), std::string::npos);
    EXPECT_NE(md.find("| x | 1.23 | - |"), std::string::npos);
}

TEST(ResultTable, PrecisionControlsDigits)
{
    ResultTable table = sample();
    table.setPrecision(0);
    EXPECT_NE(table.toCsv().find("x,1,"), std::string::npos);
}

TEST(FormatFixed, Rounds)
{
    EXPECT_EQ(formatFixed(1.005, 2), "1.00"); // bankers-ish via printf
    EXPECT_EQ(formatFixed(2.675, 1), "2.7");
    EXPECT_EQ(formatFixed(-3.14159, 3), "-3.142");
}

} // namespace
} // namespace ibp
