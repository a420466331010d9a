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
