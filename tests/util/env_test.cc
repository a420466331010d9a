#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "util/env.hh"

namespace wsearch {
namespace {

TEST(Env, FallbackWhenUnset)
{
    unsetenv("WSEARCH_TEST_VAR");
    EXPECT_EQ(envU64("WSEARCH_TEST_VAR", 77), 77u);
}

TEST(Env, ParsesValue)
{
    setenv("WSEARCH_TEST_VAR", "1234", 1);
    EXPECT_EQ(envU64("WSEARCH_TEST_VAR", 0), 1234u);
    unsetenv("WSEARCH_TEST_VAR");
}

TEST(Env, InvalidFallsBack)
{
    // Only an empty value falls back; anything that is not a full
    // unsigned decimal is fatal and names the variable and its value.
    setenv("WSEARCH_TEST_VAR", "", 1);
    EXPECT_EQ(envU64("WSEARCH_TEST_VAR", 9), 9u);
    setenv("WSEARCH_TEST_VAR", "18446744073709551615", 1);
    EXPECT_EQ(envU64("WSEARCH_TEST_VAR", 9), 18446744073709551615ull);
    for (const char *bad :
         {"abc", "12abc", "-1", "18446744073709551616"}) {
        setenv("WSEARCH_TEST_VAR", bad, 1);
        EXPECT_DEATH(envU64("WSEARCH_TEST_VAR", 9),
                     std::string("WSEARCH_TEST_VAR=\"") + bad + "\"")
            << bad;
    }
    unsetenv("WSEARCH_TEST_VAR");
}

TEST(Env, U32RejectsValuesPast32Bits)
{
    // A 32-bit knob must not wrap: 2^32 would silently become 0 and
    // 2^32+1 would become 1 under a narrowing cast.
    setenv("WSEARCH_TEST_VAR", "4294967295", 1);
    EXPECT_EQ(envU32("WSEARCH_TEST_VAR", 9), 4294967295u);
    unsetenv("WSEARCH_TEST_VAR");
    EXPECT_EQ(envU32("WSEARCH_TEST_VAR", 9), 9u);
    for (const char *bad : {"4294967296", "4294967297", "abc"}) {
        setenv("WSEARCH_TEST_VAR", bad, 1);
        EXPECT_DEATH(envU32("WSEARCH_TEST_VAR", 9),
                     std::string("WSEARCH_TEST_VAR=\"") + bad + "\"")
            << bad;
    }
    unsetenv("WSEARCH_TEST_VAR");
}

TEST(Env, TraceBudgetFastMode)
{
    unsetenv("WSEARCH_RECORDS");
    setenv("WSEARCH_FAST", "1", 1);
    EXPECT_EQ(traceBudget(8000), 1000u);
    unsetenv("WSEARCH_FAST");
    EXPECT_EQ(traceBudget(8000), 8000u);
}

TEST(Env, TraceBudgetOverride)
{
    setenv("WSEARCH_RECORDS", "555", 1);
    EXPECT_EQ(traceBudget(8000), 555u);
    unsetenv("WSEARCH_RECORDS");
}

} // namespace
} // namespace wsearch
