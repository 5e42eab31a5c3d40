// Tests for the table renderer, stats helpers, env knobs and timers.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <thread>
#include <sstream>

#include "util/env.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace gt {
namespace {

TEST(Table, RendersAlignedColumns) {
    Table t({"name", "value"});
    t.add_row({"alpha", "1"});
    t.add_row({"b", "22222"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22222"), std::string::npos);
    // Header rule line present.
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, CsvOutput) {
    Table t({"a", "b"});
    t.add_row({"1", "2"});
    std::ostringstream os;
    t.print_csv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, ShortRowsArePadded) {
    Table t({"a", "b", "c"});
    t.add_row({"only"});
    std::ostringstream os;
    t.print_csv(os);
    EXPECT_EQ(os.str(), "a,b,c\nonly,,\n");
}

TEST(Table, NumericRowsFormatted) {
    Table t({"x", "y"});
    t.add_row_values({1.23456, 2.0}, 2);
    std::ostringstream os;
    t.print_csv(os);
    EXPECT_EQ(os.str(), "x,y\n1.23,2.00\n");
}

TEST(Stats, SummarizeBasics) {
    const Summary s = summarize({1.0, 2.0, 3.0, 4.0});
    EXPECT_DOUBLE_EQ(s.mean, 2.5);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 4.0);
    EXPECT_EQ(s.count, 4u);
    // Sample stddev: sqrt(((1.5^2)*2 + (0.5^2)*2) / 3) = sqrt(5/3).
    EXPECT_NEAR(s.stddev, 1.29099, 0.0001);
}

TEST(Stats, SummarizeEmpty) {
    const Summary s = summarize({});
    EXPECT_EQ(s.count, 0u);
    EXPECT_DOUBLE_EQ(s.mean, 0.0);
    EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Stats, SummarizeSingleSampleHasNoSpread) {
    // n = 1: mean/min/max collapse to the sample; the n-1 divisor would be
    // 0/0, so the spread estimate is defined as 0.
    const Summary s = summarize({7.5});
    EXPECT_EQ(s.count, 1u);
    EXPECT_DOUBLE_EQ(s.mean, 7.5);
    EXPECT_DOUBLE_EQ(s.min, 7.5);
    EXPECT_DOUBLE_EQ(s.max, 7.5);
    EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Stats, SummarizeTwoSamplesUsesBessel) {
    // n = 2: var = ((1)^2 + (1)^2) / (2-1) = 2, stddev = sqrt(2) —
    // the population formula would give 1.0.
    const Summary s = summarize({4.0, 6.0});
    EXPECT_EQ(s.count, 2u);
    EXPECT_DOUBLE_EQ(s.mean, 5.0);
    EXPECT_DOUBLE_EQ(s.stddev, std::sqrt(2.0));
}

TEST(Stats, DegradationMatchesPaperDefinition) {
    // Paper: "decreased from 1.6 ... to 1 ... about 34% degradation" —
    // relative drop between first and last sample.
    EXPECT_NEAR(degradation({1.6, 1.2, 1.0}), 0.375, 1e-9);
    EXPECT_DOUBLE_EQ(degradation({2.0, 2.0}), 0.0);
    EXPECT_DOUBLE_EQ(degradation({5.0}), 0.0);
    EXPECT_DOUBLE_EQ(degradation({}), 0.0);
}

TEST(Env, ReadsDoublesAndFallsBack) {
    ::setenv("GT_TEST_ENV_D", "2.5", 1);
    EXPECT_DOUBLE_EQ(env_double("GT_TEST_ENV_D", 1.0), 2.5);
    ::unsetenv("GT_TEST_ENV_D");
    EXPECT_DOUBLE_EQ(env_double("GT_TEST_ENV_D", 1.0), 1.0);
    ::setenv("GT_TEST_ENV_D", "garbage", 1);
    EXPECT_DOUBLE_EQ(env_double("GT_TEST_ENV_D", 3.0), 3.0);
    ::unsetenv("GT_TEST_ENV_D");
}

TEST(Env, ReadsIntegers) {
    ::setenv("GT_TEST_ENV_U", "42", 1);
    EXPECT_EQ(env_u64("GT_TEST_ENV_U", 7), 42u);
    ::unsetenv("GT_TEST_ENV_U");
    EXPECT_EQ(env_u64("GT_TEST_ENV_U", 7), 7u);
    // Only a whole positive decimal counts.
    for (const char* bad : {"0", "-5", "12abc", "abc"}) {
        ::setenv("GT_TEST_ENV_U", bad, 1);
        EXPECT_EQ(env_u64("GT_TEST_ENV_U", 7), 7u) << bad;
    }
    ::unsetenv("GT_TEST_ENV_U");
}

TEST(Timer, MeasuresElapsedTime) {
    Timer t;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_GT(t.seconds(), 0.0);
    EXPECT_GE(t.millis(), t.seconds() * 1000.0 * 0.99);
}

TEST(Timer, MopsGuardsZeroTime) {
    EXPECT_DOUBLE_EQ(mops(1000, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(mops(2'000'000, 1.0), 2.0);
}

}  // namespace
}  // namespace gt
