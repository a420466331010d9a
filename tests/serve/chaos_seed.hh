/**
 * @file
 * The base seed of the chaos suites: WSEARCH_CHAOS_SEED when set,
 * parsed strictly as decimal or 0x-prefixed hex (the form CI echoes),
 * else a fixed default. Any other value fails the calling test and
 * names the variable, so a mistyped seed never runs a seed other than
 * the one that was echoed.
 */

#ifndef WSEARCH_TESTS_SERVE_CHAOS_SEED_HH
#define WSEARCH_TESTS_SERVE_CHAOS_SEED_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>

#include "util/env.hh"

namespace wsearch {

/**
 * Parse @p s as a full unsigned decimal, or as 0x/0X followed by hex
 * digits, with no sign, whitespace, trailing characters or overflow.
 * Returns false (leaving @p out untouched) on anything else.
 */
inline bool
parseChaosSeed(const char *s, uint64_t &out)
{
    if (s[0] != '0' || (s[1] != 'x' && s[1] != 'X'))
        return parseU64(s, out);
    s += 2;
    if (!*s)
        return false;
    uint64_t v = 0;
    for (; *s; ++s) {
        uint64_t digit;
        if (*s >= '0' && *s <= '9')
            digit = static_cast<uint64_t>(*s - '0');
        else if (*s >= 'a' && *s <= 'f')
            digit = static_cast<uint64_t>(*s - 'a' + 10);
        else if (*s >= 'A' && *s <= 'F')
            digit = static_cast<uint64_t>(*s - 'A' + 10);
        else
            return false;
        if (v >> 60)
            return false; // a 17th significant hex digit overflows
        v = v << 4 | digit;
    }
    out = v;
    return true;
}

/** The chaos base seed (see the file comment); unset or empty keeps
 *  the built-in default. */
inline uint64_t
chaosBaseSeed()
{
    uint64_t seed = 0x5eedc4a05ull;
    const char *s = std::getenv("WSEARCH_CHAOS_SEED");
    if (s && *s && !parseChaosSeed(s, seed))
        ADD_FAILURE() << "WSEARCH_CHAOS_SEED=\"" << s
                      << "\" is neither decimal nor 0x-prefixed hex";
    return seed;
}

} // namespace wsearch

#endif // WSEARCH_TESTS_SERVE_CHAOS_SEED_HH
