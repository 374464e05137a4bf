/** @file Unit tests for the CLI argument parser. */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "util/arg_parser.hh"

using namespace wlcache::util;

namespace {

/** Helper: parse a vector of strings as argv. */
bool
parse(ArgParser &p, std::vector<std::string> argv_strings)
{
    std::vector<char *> argv;
    static std::vector<std::string> storage;
    storage = std::move(argv_strings);
    argv.push_back(const_cast<char *>("prog"));
    for (auto &s : storage)
        argv.push_back(s.data());
    return p.parse(static_cast<int>(argv.size()), argv.data());
}

ArgParser
makeParser()
{
    ArgParser p("prog", "test");
    p.option("name", "default", "a name")
        .option("count", "3", "a count")
        .option("ratio", "0.5", "a ratio")
        .flag("verbose", "talk more");
    return p;
}

} // namespace

TEST(ArgParser, DefaultsApply)
{
    auto p = makeParser();
    ASSERT_TRUE(parse(p, {}));
    EXPECT_EQ(p.get("name"), "default");
    EXPECT_EQ(p.getInt("count"), 3);
    EXPECT_DOUBLE_EQ(p.getDouble("ratio"), 0.5);
    EXPECT_FALSE(p.getFlag("verbose"));
}

TEST(ArgParser, SpaceSeparatedValues)
{
    auto p = makeParser();
    ASSERT_TRUE(parse(p, { "--name", "wl", "--count", "42" }));
    EXPECT_EQ(p.get("name"), "wl");
    EXPECT_EQ(p.getInt("count"), 42);
}

TEST(ArgParser, EqualsSeparatedValues)
{
    auto p = makeParser();
    ASSERT_TRUE(parse(p, { "--ratio=0.25", "--name=x" }));
    EXPECT_DOUBLE_EQ(p.getDouble("ratio"), 0.25);
    EXPECT_EQ(p.get("name"), "x");
}

TEST(ArgParser, FlagsToggle)
{
    auto p = makeParser();
    ASSERT_TRUE(parse(p, { "--verbose" }));
    EXPECT_TRUE(p.getFlag("verbose"));
}

TEST(ArgParser, PositionalsCollected)
{
    auto p = makeParser();
    ASSERT_TRUE(parse(p, { "cmd", "--count", "1", "file.txt" }));
    ASSERT_EQ(p.positional().size(), 2u);
    EXPECT_EQ(p.positional()[0], "cmd");
    EXPECT_EQ(p.positional()[1], "file.txt");
}

TEST(ArgParser, UnknownOptionFails)
{
    auto p = makeParser();
    EXPECT_FALSE(parse(p, { "--bogus", "1" }));
}

TEST(ArgParser, MissingValueFails)
{
    auto p = makeParser();
    EXPECT_FALSE(parse(p, { "--count" }));
}

TEST(ArgParser, FlagWithValueFails)
{
    auto p = makeParser();
    EXPECT_FALSE(parse(p, { "--verbose=1" }));
}

TEST(ArgParser, HelpStopsParsing)
{
    auto p = makeParser();
    EXPECT_FALSE(parse(p, { "--help" }));
}

TEST(ArgParser, ScientificNotationDoubles)
{
    auto p = makeParser();
    ASSERT_TRUE(parse(p, { "--ratio", "1e-6" }));
    EXPECT_DOUBLE_EQ(p.getDouble("ratio"), 1e-6);
}

TEST(ArgParser, NonNumericValuesAreFatal)
{
    // Trailing garbage, no digits at all, and out-of-range values
    // each name the option instead of reading as a prefix or as 0.
    const std::pair<const char *, const char *> cases[] = {
        { "--count", "5k" },
        { "--count", "abc" },
        { "--count", "" },
        { "--count", "99999999999999999999999" },
        { "--ratio", "0.5x" },
        { "--ratio", "1e999" },
    };
    for (const auto &[opt, value] : cases) {
        auto p = makeParser();
        ASSERT_TRUE(parse(p, { opt, value }));
        const std::string name = opt + 2;
        EXPECT_DEATH(name == "count" ? (void)p.getInt(name)
                                     : (void)p.getDouble(name),
                     "option " + std::string(opt) + ": '" + value +
                         "' is not a number in range")
            << opt << " " << value;
    }
    // Hex integers and signs still parse.
    auto p = makeParser();
    ASSERT_TRUE(parse(p, { "--count", "0x10", "--ratio", "-2.5" }));
    EXPECT_EQ(p.getInt("count"), 16);
    EXPECT_DOUBLE_EQ(p.getDouble("ratio"), -2.5);
}

TEST(ArgParser, NegativeCountIsFatal)
{
    auto p = makeParser();
    ASSERT_TRUE(parse(p, { "--count", "-1" }));
    EXPECT_EQ(p.getInt("count"), -1);
    EXPECT_DEATH(p.getCount("count"), "--count must be >= 0, got -1");
    ASSERT_TRUE(parse(p, { "--count", "0" }));
    EXPECT_EQ(p.getCount("count"), 0u);
}

TEST(ArgParser, UsageListsOptions)
{
    const auto p = makeParser();
    const std::string u = p.usage();
    EXPECT_NE(u.find("--name"), std::string::npos);
    EXPECT_NE(u.find("--verbose"), std::string::npos);
    EXPECT_NE(u.find("default: 3"), std::string::npos);
}

TEST(ArgParser, ListOptionCollectsRepeats)
{
    ArgParser p("prog", "test");
    p.listOption("objective", "figures of merit");
    ASSERT_TRUE(parse(p, { "--objective", "time", "--objective",
                           "energy" }));
    const auto &vals = p.getList("objective");
    ASSERT_EQ(vals.size(), 2u);
    EXPECT_EQ(vals[0], "time");
    EXPECT_EQ(vals[1], "energy");
}

TEST(ArgParser, ListOptionSplitsCommas)
{
    ArgParser p("prog", "test");
    p.listOption("objective", "figures of merit");
    ASSERT_TRUE(parse(p, { "--objective", "time", "--objective",
                           "nvm,energy" }));
    const auto &vals = p.getList("objective");
    ASSERT_EQ(vals.size(), 3u);
    EXPECT_EQ(vals[0], "time");
    EXPECT_EQ(vals[1], "nvm");
    EXPECT_EQ(vals[2], "energy");
}

TEST(ArgParser, ListOptionEqualsForm)
{
    ArgParser p("prog", "test");
    p.listOption("tag", "labels");
    ASSERT_TRUE(parse(p, { "--tag=a,b", "--tag=c" }));
    const auto &vals = p.getList("tag");
    ASSERT_EQ(vals.size(), 3u);
    EXPECT_EQ(vals[2], "c");
}

TEST(ArgParser, ListOptionDefaultsEmpty)
{
    ArgParser p("prog", "test");
    p.listOption("tag", "labels");
    ASSERT_TRUE(parse(p, {}));
    EXPECT_TRUE(p.getList("tag").empty());
}

TEST(ArgParser, ListOptionIgnoresEmptyItems)
{
    ArgParser p("prog", "test");
    p.listOption("tag", "labels");
    ASSERT_TRUE(parse(p, { "--tag", "a,,b", "--tag", "" }));
    const auto &vals = p.getList("tag");
    ASSERT_EQ(vals.size(), 2u);
    EXPECT_EQ(vals[0], "a");
    EXPECT_EQ(vals[1], "b");
}

TEST(ArgParser, ListOptionMixesWithScalars)
{
    ArgParser p("prog", "test");
    p.option("count", "3", "a count").listOption("tag", "labels");
    ASSERT_TRUE(parse(p, { "--count", "1", "--tag", "x", "--count",
                           "2" }));
    EXPECT_EQ(p.getInt("count"), 2); // scalar: last write wins
    ASSERT_EQ(p.getList("tag").size(), 1u);
}

TEST(ArgParser, ListOptionUsageMarksRepeatable)
{
    ArgParser p("prog", "test");
    p.listOption("objective", "figures of merit");
    EXPECT_NE(p.usage().find("(repeatable)"), std::string::npos);
}
