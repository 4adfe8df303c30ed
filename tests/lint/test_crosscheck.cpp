/**
 * @file
 * Race-log cross-check fixtures: JSONL parsing, path suffix matching,
 * promotion of dynamically-confirmed findings, and X1 contradictions.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "lint_test_util.hpp"
#include "racelog.hpp"

namespace icheck::lint
{
namespace
{

using testutil::countRule;
using testutil::lintSnippets;

const char *const kCounterSource = R"cpp(
#include <mutex>
struct Counter
{
    std::mutex mu;
    long value = 0;
    void addA(long n)
    {
        std::lock_guard<std::mutex> guard(mu);
        value = value + n;
    }
    void addB(long n)
    {
        std::lock_guard<std::mutex> guard(mu);
        value = value + 2 * n;
    }
    void addRacy(long n)
    {
        value = value + 3 * n;
    }
};
)cpp";

// Same shape but fully guarded: with no racy write the lockset pass
// believes 'value' protected, so its write lines (10 and 15) land in
// guardedLines — the precondition for X1.
const char *const kGuardedSource = R"cpp(
#include <mutex>
struct Counter
{
    std::mutex mu;
    long value = 0;
    void addA(long n)
    {
        std::lock_guard<std::mutex> guard(mu);
        value = value + n;
    }
    void addB(long n)
    {
        std::lock_guard<std::mutex> guard(mu);
        value = value + 2 * n;
    }
};
)cpp";

DynamicRace
raceAt(const std::string &file, int first_line, int second_line)
{
    DynamicRace race;
    race.app = "waterSP";
    race.kind = "write-write";
    race.symbol = "global:value+0x0";
    race.first = {file, first_line, 1};
    race.second = {file, second_line, 3};
    return race;
}

TEST(RaceLog, ParsesWriterFormat)
{
    std::istringstream in(
        R"({"app":"waterSP","kind":"write-write","symbol":"global:kinetic+0x0",)"
        R"("first":{"tid":3,"file":"src/apps/apps_fp.cpp","line":275},)"
        R"("second":{"tid":1,"file":"src/apps/apps_fp.cpp","line":278}})"
        "\n"
        "not json at all\n"
        R"({"app":"x","kind":"read-write","symbol":"s",)"
        R"("first":{"tid":0,"file":"","line":0},)"
        R"("second":{"tid":2,"file":"a/b.cpp","line":7}})"
        "\n");
    const auto races = readRaceLog(in);
    ASSERT_EQ(races.size(), 2u);
    EXPECT_EQ(races[0].kind, "write-write");
    EXPECT_EQ(races[0].first.file, "src/apps/apps_fp.cpp");
    EXPECT_EQ(races[0].first.line, 275);
    EXPECT_EQ(races[0].second.tid, 1);
    // Second record: only one endpoint attributed, still kept.
    EXPECT_EQ(races[1].second.line, 7);
    EXPECT_EQ(races[1].first.line, 0);
}

TEST(RaceLog, PathSuffixMatchingRespectsComponentBoundaries)
{
    EXPECT_TRUE(pathsMatch("src/apps/apps_fp.cpp",
                           "/build/../src/apps/apps_fp.cpp"));
    EXPECT_TRUE(pathsMatch("apps_fp.cpp", "src/apps/apps_fp.cpp"));
    EXPECT_TRUE(pathsMatch("a/b.cpp", "a/b.cpp"));
    EXPECT_FALSE(pathsMatch("x_apps_fp.cpp", "src/apps/apps_fp.cpp"));
    EXPECT_FALSE(pathsMatch("", "a.cpp"));
    EXPECT_FALSE(pathsMatch("a/b.cpp", "a/c.cpp"));
}

TEST(CrossCheck, PromotesConfirmedFindingToError)
{
    // The racy write sits on line 19 of the fixture.
    const LintRun plain =
        lintSnippets({{"src/sim/counter.cpp", kCounterSource}});
    ASSERT_EQ(countRule(plain.findings, Rule::L1), 1);
    EXPECT_EQ(plain.findings[0].finding.severity, Severity::Warning);

    const LintRun checked = lintSnippets(
        {{"src/sim/counter.cpp", kCounterSource}}, LintConfig{},
        {raceAt("/abs/path/src/sim/counter.cpp", 19, 10)});
    ASSERT_EQ(countRule(checked.findings, Rule::L1), 1);
    const Finding &finding = checked.findings[0].finding;
    EXPECT_EQ(finding.severity, Severity::Error);
    EXPECT_NE(finding.message.find("confirmed by dynamic race"),
              std::string::npos);
}

TEST(CrossCheck, UnrelatedRaceDoesNotPromote)
{
    const LintRun checked = lintSnippets(
        {{"src/sim/counter.cpp", kCounterSource}}, LintConfig{},
        {raceAt("src/other/elsewhere.cpp", 19, 10)});
    ASSERT_EQ(countRule(checked.findings, Rule::L1), 1);
    EXPECT_EQ(checked.findings[0].finding.severity, Severity::Warning);
}

TEST(CrossCheck, EmitsX1WhenRaceHitsABelievedGuardedLine)
{
    // Lines 10 and 15 are the guarded writes; a dynamic race there
    // contradicts the static model.
    const LintRun checked = lintSnippets(
        {{"src/sim/counter.cpp", kGuardedSource}}, LintConfig{},
        {raceAt("src/sim/counter.cpp", 10, 15)});
    EXPECT_EQ(countRule(checked.findings, Rule::X1), 2);
    for (const KeyedFinding &entry : checked.findings) {
        if (entry.finding.rule == Rule::X1) {
            EXPECT_EQ(entry.finding.severity, Severity::Error);
        }
    }
}

TEST(CrossCheck, X1DeduplicatesRepeatedEndpoints)
{
    const LintRun checked = lintSnippets(
        {{"src/sim/counter.cpp", kGuardedSource}}, LintConfig{},
        {raceAt("src/sim/counter.cpp", 10, 10),
         raceAt("src/sim/counter.cpp", 10, 10)});
    EXPECT_EQ(countRule(checked.findings, Rule::X1), 1);
}

TEST(CrossCheck, NoRacesMeansNoX1AndNoPromotion)
{
    const LintRun checked =
        lintSnippets({{"src/sim/counter.cpp", kCounterSource}});
    EXPECT_EQ(countRule(checked.findings, Rule::X1), 0);
    for (const KeyedFinding &entry : checked.findings)
        EXPECT_NE(entry.finding.severity, Severity::Error);
}

} // namespace
} // namespace icheck::lint
