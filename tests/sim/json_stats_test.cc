/**
 * @file
 * Unit tests for the JSON statistics writer and the StatGroup visitor.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/json.hh"
#include "sim/json_stats.hh"

namespace mtrap
{
namespace
{

TEST(JsonEscape, HandlesSpecials)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
    EXPECT_EQ(jsonEscape("a\tb"), "a\\tb");
}

// A JSON string literal parsed on its own.
bool
parseString(const std::string &literal, std::string &out, std::string &err)
{
    JsonValue v;
    if (!parseJson(literal, v, err))
        return false;
    EXPECT_EQ(v.kind, JsonValue::Kind::String);
    out = v.string;
    return true;
}

TEST(JsonParse, EscapedControlCharactersRoundTrip)
{
    std::string all;
    for (int c = 0; c < 0x20; ++c) {
        const std::string one(1, static_cast<char>(c));
        std::string back, err;
        ASSERT_TRUE(parseString("\"" + jsonEscape(one) + "\"", back, err))
            << c << ": " << err;
        EXPECT_EQ(back, one) << c;
        all += one + "x";
    }
    std::string back, err;
    ASSERT_TRUE(parseString("\"" + jsonEscape(all) + "\"", back, err)) << err;
    EXPECT_EQ(back, all);
}

TEST(JsonParse, DecodesUnicodeEscapesToUtf8)
{
    std::string out, err;
    ASSERT_TRUE(parseString(R"("a\u0041\u00e9\u20AC\ud83d\ude00z")",
                            out, err))
        << err;
    EXPECT_EQ(out, "aA\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80z");
}

TEST(JsonParse, RejectsMalformedStrings)
{
    std::string out, err;
    EXPECT_FALSE(parseString(R"("\uZZZZ")", out, err));
    EXPECT_FALSE(parseString(R"("\u12")", out, err));
    EXPECT_FALSE(parseString(R"("\u00G0")", out, err));
    EXPECT_FALSE(parseString(R"("\ud83d")", out, err))
        << "a high surrogate needs its low half";
    EXPECT_FALSE(parseString(R"("\ud83dx\ude00")", out, err));
    EXPECT_FALSE(parseString(R"("\ude00")", out, err));
    for (int c = 0; c < 0x20; ++c) {
        EXPECT_FALSE(parseString(std::string("\"a") + static_cast<char>(c)
                                     + "b\"",
                                 out, err))
            << "raw control character " << c;
    }
}

TEST(StatGroupVisit, WalksSubtreeWithPaths)
{
    StatGroup root("sys");
    StatGroup child("l1", &root);
    Counter a(&root, "a", "");
    Counter b(&child, "b", "");
    a += 3;
    b += 4;

    std::vector<std::string> paths;
    root.visit([&paths](const std::string &p, const StatView &) {
        paths.push_back(p);
    });
    ASSERT_EQ(paths.size(), 2u);
    EXPECT_EQ(paths[0], "sys.a");
    EXPECT_EQ(paths[1], "sys.l1.b");
}

TEST(DumpStatsJson, EmitsValidLookingObject)
{
    StatGroup root("sys");
    Counter c(&root, "count", "");
    c += 42;
    Average avg(&root, "avg", "");
    avg.sample(2.0);

    std::ostringstream os;
    dumpStatsJson(root, os);
    const std::string s = os.str();
    EXPECT_EQ(s.front(), '{');
    EXPECT_NE(s.find("\"sys.count\": \"42\""), std::string::npos);
    EXPECT_NE(s.find("\"sys.avg\""), std::string::npos);
    // Exactly one comma between the two entries.
    EXPECT_EQ(std::count(s.begin(), s.end(), ','), 1);
}

TEST(DumpStatsJson, EscapesHostileStatNames)
{
    // A workload/config label can reach a group name (CacheParams::name
    // and friends); quotes, backslashes and control characters in it
    // must not break the JSON framing.
    StatGroup root("sys");
    StatGroup evil("l1\"d\\x\n", &root);
    Counter c(&evil, "hits", "");
    c += 3;

    std::ostringstream os;
    dumpStatsJson(root, os);
    const std::string s = os.str();
    EXPECT_NE(s.find("\"sys.l1\\\"d\\\\x\\n.hits\": \"3\""),
              std::string::npos);
    // No raw quote/newline survives inside the key.
    EXPECT_EQ(s.find("l1\"d"), std::string::npos);
    EXPECT_EQ(s.find("x\n.hits"), std::string::npos);
}

TEST(DumpStatsJson, EmptyGroupStillValid)
{
    StatGroup root("sys");
    std::ostringstream os;
    dumpStatsJson(root, os);
    EXPECT_NE(os.str().find("{"), std::string::npos);
    EXPECT_NE(os.str().find("}"), std::string::npos);
}

TEST(DumpRunResultJson, ContainsAllFields)
{
    RunResult r;
    r.workload = "mcf";
    r.configName = "MuonTrap";
    r.cycles = 1234;
    r.instructionsPerCore = 1000;
    r.ipc = 0.81;
    std::ostringstream os;
    dumpRunResultJson(r, os);
    const std::string s = os.str();
    EXPECT_NE(s.find("\"workload\": \"mcf\""), std::string::npos);
    EXPECT_NE(s.find("\"cycles\": 1234"), std::string::npos);
    EXPECT_NE(s.find("\"ipc\": 0.81"), std::string::npos);
}

} // namespace
} // namespace mtrap
