/**
 * @file
 * Tests of the checkpoint journal: fresh creation, append/reopen
 * restore with bit-exact miss rates, meta binding, grid-id
 * disambiguation, and crash-truncation tolerance.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>

#include "robust/checkpoint.hh"

namespace ibp {
namespace {

CheckpointMeta
sampleMeta()
{
    CheckpointMeta meta;
    meta.slug = "fig11";
    meta.gitSha = "abc123def456";
    meta.eventScale = 0.25;
    meta.quick = true;
    return meta;
}

std::string
tempJournal(const std::string &name)
{
    const std::string path =
        testing::TempDir() + "/ibp_ckpt_" + name + ".jsonl";
    std::remove(path.c_str());
    return path;
}

TEST(CheckpointTest, FreshJournalHasNoRestoredCells)
{
    const std::string path = tempJournal("fresh");
    const auto journal =
        CheckpointJournal::open(path, sampleMeta());
    ASSERT_TRUE(journal.ok());
    EXPECT_EQ(journal.value()->restoredCells(), 0u);
    EXPECT_FALSE(journal.value()->lookup(0, "col", "idl"));
}

TEST(CheckpointTest, AppendThenReopenRestoresBitExactRates)
{
    const std::string path = tempJournal("roundtrip");
    // Awkward full-precision doubles: the journal must reproduce
    // them bit-for-bit or a resumed artifact would drift.
    const double rate_a = 24.91234567890123;
    const double rate_b = 100.0 / 3.0;
    {
        const auto journal =
            CheckpointJournal::open(path, sampleMeta());
        ASSERT_TRUE(journal.ok());
        ASSERT_TRUE(journal.value()
                        ->append({0, "col", "idl", rate_a})
                        .ok());
        ASSERT_TRUE(journal.value()
                        ->append({1, "col", "idl", rate_b})
                        .ok());
    }
    const auto journal = CheckpointJournal::open(path, sampleMeta());
    ASSERT_TRUE(journal.ok());
    EXPECT_EQ(journal.value()->restoredCells(), 2u);
    const auto a = journal.value()->lookup(0, "col", "idl");
    const auto b = journal.value()->lookup(1, "col", "idl");
    ASSERT_TRUE(a && b);
    EXPECT_EQ(*a, rate_a); // exact, not NEAR
    EXPECT_EQ(*b, rate_b);
}

TEST(CheckpointTest, JournalTextIsPinnedByteForByte)
{
    // Lines as the journal wrote them before the number writer moved
    // from an snprintf/strtod loop to std::to_chars. A resumed run
    // must read them back bit-exact, and a fresh journal must write
    // the same bytes.
    const std::string pinned =
        "{\"schema\":\"ibp-checkpoint\",\"version\":1,\"slug\":"
        "\"fig11\",\"git_sha\":\"abc123def456\",\"event_scale\":0.25,"
        "\"quick\":true}\n"
        "{\"grid\":2,\"column\":\"p=3\",\"benchmark\":\"idl\","
        "\"miss\":5.492102065613609}\n"
        "{\"grid\":0,\"column\":\"col\",\"benchmark\":\"idl\","
        "\"miss\":33.333333333333336}\n";
    const double rate_a = 100.0 * 678 / 12345;
    const double rate_b = 100.0 / 3.0;

    const std::string path = tempJournal("pinned");
    {
        const auto journal = CheckpointJournal::open(path, sampleMeta());
        ASSERT_TRUE(journal.ok());
        ASSERT_TRUE(journal.value()->append({2, "p=3", "idl", rate_a}).ok());
        ASSERT_TRUE(journal.value()->append({0, "col", "idl", rate_b}).ok());
    }
    {
        std::ifstream in(path);
        const std::string text((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
        EXPECT_EQ(text, pinned);
    }

    {
        std::ofstream out(path, std::ios::trunc);
        out << pinned;
    }
    const auto journal = CheckpointJournal::open(path, sampleMeta());
    ASSERT_TRUE(journal.ok());
    EXPECT_EQ(journal.value()->restoredCells(), 2u);
    const auto a = journal.value()->lookup(2, "p=3", "idl");
    const auto b = journal.value()->lookup(0, "col", "idl");
    ASSERT_TRUE(a && b);
    EXPECT_EQ(*a, rate_a);
    EXPECT_EQ(*b, rate_b);
}

TEST(CheckpointTest, GridIdsDisambiguateIdenticalLabels)
{
    const std::string path = tempJournal("grids");
    const auto journal = CheckpointJournal::open(path, sampleMeta());
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal.value()->append({0, "128", "idl", 1.0}).ok());
    // fig11-style reruns: same column label, different grid.
    EXPECT_TRUE(journal.value()->lookup(0, "128", "idl").has_value());
    EXPECT_FALSE(journal.value()->lookup(1, "128", "idl").has_value());
}

TEST(CheckpointTest, MetaMismatchIsRejected)
{
    const std::string path = tempJournal("meta");
    {
        const auto journal =
            CheckpointJournal::open(path, sampleMeta());
        ASSERT_TRUE(journal.ok());
    }
    CheckpointMeta other = sampleMeta();
    other.gitSha = "fedcba987654";
    const auto rejected = CheckpointJournal::open(path, other);
    ASSERT_FALSE(rejected.ok());
    EXPECT_NE(rejected.error().message.find("different run"),
              std::string::npos);

    CheckpointMeta scaled = sampleMeta();
    scaled.eventScale = 1.0;
    EXPECT_FALSE(CheckpointJournal::open(path, scaled).ok());

    CheckpointMeta full = sampleMeta();
    full.quick = false;
    EXPECT_FALSE(CheckpointJournal::open(path, full).ok());
}

TEST(CheckpointTest, TruncatedFinalLineIsTolerated)
{
    const std::string path = tempJournal("truncated");
    {
        const auto journal =
            CheckpointJournal::open(path, sampleMeta());
        ASSERT_TRUE(journal.ok());
        ASSERT_TRUE(
            journal.value()->append({0, "col", "idl", 5.5}).ok());
    }
    // Simulate a crash mid-append: half a JSON line, no newline.
    {
        std::ofstream out(path, std::ios::app);
        out << "{\"grid\":0,\"column\":\"col\",\"benchm";
    }
    const auto journal = CheckpointJournal::open(path, sampleMeta());
    ASSERT_TRUE(journal.ok());
    EXPECT_EQ(journal.value()->restoredCells(), 1u);
    EXPECT_TRUE(journal.value()->lookup(0, "col", "idl").has_value());
}

TEST(CheckpointTest, CorruptLineMidFileIsAnError)
{
    const std::string path = tempJournal("corrupt");
    {
        std::ofstream out(path);
        out << "{\"schema\":\"ibp-checkpoint\",\"version\":1,"
               "\"slug\":\"fig11\",\"git_sha\":\"abc123def456\","
               "\"event_scale\":0.25,\"quick\":true}\n";
        out << "garbage not json\n";
        out << "{\"grid\":0,\"column\":\"col\","
               "\"benchmark\":\"idl\",\"miss\":1.0}\n";
    }
    const auto journal = CheckpointJournal::open(path, sampleMeta());
    ASSERT_FALSE(journal.ok());
    EXPECT_NE(journal.error().message.find("corrupt line"),
              std::string::npos);
}

TEST(CheckpointTest, TruncatedHeaderRestartsJournal)
{
    const std::string path = tempJournal("badheader");
    {
        std::ofstream out(path);
        out << "{\"schema\":\"ibp-check"; // crash during first write
    }
    const auto journal = CheckpointJournal::open(path, sampleMeta());
    ASSERT_TRUE(journal.ok());
    EXPECT_EQ(journal.value()->restoredCells(), 0u);
    ASSERT_TRUE(journal.value()->append({0, "col", "idl", 1.0}).ok());
    // The rewritten file must now reopen cleanly.
    const auto reopened =
        CheckpointJournal::open(path, sampleMeta());
    ASSERT_TRUE(reopened.ok());
    EXPECT_EQ(reopened.value()->restoredCells(), 1u);
}

TEST(CheckpointTest, WrongSchemaIsRejected)
{
    const std::string path = tempJournal("schema");
    {
        std::ofstream out(path);
        out << "{\"schema\":\"something-else\",\"version\":1}\n";
    }
    const auto journal = CheckpointJournal::open(path, sampleMeta());
    ASSERT_FALSE(journal.ok());
    EXPECT_NE(journal.error().message.find("not a version-"),
              std::string::npos);
}

TEST(CheckpointTest, CreatesParentDirectories)
{
    const std::string path = testing::TempDir() +
                             "/ibp_ckpt_nested/deep/dir/journal.jsonl";
    const auto journal = CheckpointJournal::open(path, sampleMeta());
    ASSERT_TRUE(journal.ok());
    EXPECT_TRUE(journal.value()->append({0, "c", "b", 1.0}).ok());
}

TEST(CheckpointTest, StartRecordsCountPriorIncarnationsOnly)
{
    const std::string path = tempJournal("starts");
    {
        const auto journal =
            CheckpointJournal::open(path, sampleMeta());
        ASSERT_TRUE(journal.ok());
        // Incarnation 1: cell A started twice (two incarnations'
        // worth written here for brevity), cell B started once and
        // finished.
        ASSERT_TRUE(
            journal.value()->appendStart({0, "col", "idl"}).ok());
        ASSERT_TRUE(
            journal.value()->appendStart({0, "col", "idl"}).ok());
        ASSERT_TRUE(journal.value()
                        ->appendStarts({{0, "col", "gcc"}})
                        .ok());
        ASSERT_TRUE(
            journal.value()->append({0, "col", "gcc", 7.25}).ok());
        // The prior count is frozen at open: this session's own
        // starts are not "prior incarnations".
        EXPECT_EQ(
            journal.value()->startedCountPrior(0, "col", "idl"), 0u);
    }
    const auto journal = CheckpointJournal::open(path, sampleMeta());
    ASSERT_TRUE(journal.ok());
    // Start lines are forensics, not results: only the finished
    // cell restores.
    EXPECT_EQ(journal.value()->restoredCells(), 1u);
    EXPECT_TRUE(
        journal.value()->lookup(0, "col", "gcc").has_value());
    EXPECT_FALSE(
        journal.value()->lookup(0, "col", "idl").has_value());
    EXPECT_EQ(journal.value()->startedCountPrior(0, "col", "idl"),
              2u);
    EXPECT_EQ(journal.value()->startedCountPrior(0, "col", "gcc"),
              1u);
    EXPECT_EQ(journal.value()->startedCountPrior(1, "col", "idl"),
              0u);
}

} // namespace
} // namespace ibp
