/**
 * @file
 * Tests for the perf-benchmark subsystem: a down-scaled run of the full
 * scenario suite (every scenario must produce nonzero throughput), a
 * real parse of the emitted BENCH.json, and the aggregate score.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <sstream>
#include <string>

#include "perf/perf_suite.hh"

namespace mtrap::perf
{
namespace
{

/**
 * Minimal recursive-descent JSON validator — enough to prove BENCH.json
 * is well-formed (objects, arrays, strings with escapes, numbers,
 * true/false/null).
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &s) : s_(s) {}

    bool valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    bool value()
    {
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    bool object()
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') { ++pos_; return true; }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == '}') { ++pos_; return true; }
            return false;
        }
    }

    bool array()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') { ++pos_; return true; }
        while (true) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == ']') { ++pos_; return true; }
            return false;
        }
    }

    bool string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return false;
            }
            ++pos_;
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool number()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool literal(const char *lit)
    {
        const std::string l(lit);
        if (s_.compare(pos_, l.size(), l) != 0)
            return false;
        pos_ += l.size();
        return true;
    }

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
    void skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

PerfOptions
tinyOptions()
{
    PerfOptions opt;
    opt.measureInstructions = 2'000;
    opt.warmupInstructions = 500;
    opt.repeats = 1;
    opt.quick = true;
    return opt;
}

TEST(PerfSuite, DownScaledSuiteAllScenariosReportThroughput)
{
    const PerfOptions opt = tinyOptions();
    const std::vector<ScenarioResult> results =
        runScenarios(defaultScenarios(), opt, nullptr);

    ASSERT_EQ(results.size(), defaultScenarios().size());
    for (const ScenarioResult &r : results) {
        EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
        EXPECT_GT(r.wallSeconds, 0.0) << r.name;
        EXPECT_GT(r.instructions, 0u) << r.name;
        EXPECT_GT(r.simCycles, 0u) << r.name;
        EXPECT_GT(r.instructionsPerSecond(), 0.0) << r.name;
        EXPECT_GT(r.cyclesPerSecond(), 0.0) << r.name;
    }
    EXPECT_GT(aggregateScoreKips(results), 0.0);
}

TEST(PerfSuite, BenchJsonIsWellFormedAndCarriesTheSchema)
{
    const PerfOptions opt = tinyOptions();
    // One cheap scenario is enough to exercise the writer.
    std::vector<PerfScenario> suite = defaultScenarios();
    suite.resize(1);
    const std::vector<ScenarioResult> results =
        runScenarios(suite, opt, nullptr);

    std::ostringstream os;
    writeBenchJson(results, opt, os);
    const std::string json = os.str();

    JsonChecker checker(json);
    EXPECT_TRUE(checker.valid()) << json;
    EXPECT_NE(json.find("\"schema\": \"mtrap-bench-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"mode\": \"quick\""), std::string::npos);
    EXPECT_NE(json.find("\"aggregate\""), std::string::npos);
    EXPECT_NE(json.find("\"instructions_per_second\""),
              std::string::npos);
}

TEST(PerfSuite, FailedScenarioIsReportedNotThrown)
{
    PerfScenario bad;
    bad.name = "always-fails";
    bad.body = [](const PerfOptions &) -> SimWork {
        throw std::runtime_error("intentional");
    };
    const std::vector<ScenarioResult> results =
        runScenarios({bad}, tinyOptions(), nullptr);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_NE(results[0].error.find("intentional"), std::string::npos);
    EXPECT_EQ(aggregateScoreKips(results), 0.0);

    std::ostringstream os;
    writeBenchJson(results, tinyOptions(), os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"ok\": false"), std::string::npos);
    JsonChecker checker(json);
    EXPECT_TRUE(checker.valid()) << json;
}

TEST(PerfSuite, ReportsTheWorkTheBodyReturns)
{
    PerfScenario fixed;
    fixed.name = "fixed-work";
    fixed.body = [](const PerfOptions &) { return SimWork{1234, 5678}; };
    PerfOptions opt = tinyOptions();
    opt.repeats = 2;
    const std::vector<ScenarioResult> results =
        runScenarios({fixed}, opt, nullptr);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].ok) << results[0].error;
    EXPECT_EQ(results[0].instructions, 1234u);
    EXPECT_EQ(results[0].simCycles, 5678u);
    EXPECT_EQ(results[0].repeats, 2u);

    // A body that reports no work is a failed scenario.
    PerfScenario idle;
    idle.name = "no-work";
    idle.body = [](const PerfOptions &) { return SimWork{}; };
    const std::vector<ScenarioResult> none =
        runScenarios({idle}, tinyOptions(), nullptr);
    ASSERT_EQ(none.size(), 1u);
    EXPECT_FALSE(none[0].ok);
}

TEST(PerfSuite, WarmForkCreditsOnlyPostRestoreWork)
{
    // The forks restore the warm machine's commits and clocks; only
    // the work each fork runs after its restore is credited, on top of
    // the warm run itself. Counting the restored work again made
    // `mtrap_perf --quick` report 80,047 instructions where about 40k
    // run.
    const std::vector<PerfScenario> suite = defaultScenarios();
    const auto it = std::find_if(suite.begin(), suite.end(),
                                 [](const PerfScenario &s) {
                                     return s.name ==
                                            "snapshot-warm-fork-muontrap";
                                 });
    ASSERT_NE(it, suite.end());
    const std::vector<ScenarioResult> results =
        runScenarios({*it}, tinyOptions(), nullptr);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].ok) << results[0].error;
    EXPECT_EQ(results[0].instructions, 4'046u);
    EXPECT_EQ(results[0].simCycles, 38'135u);
}

} // namespace
} // namespace mtrap::perf
