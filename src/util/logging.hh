/**
 * @file
 * Error reporting helpers in the spirit of gem5's logging.hh:
 * panic() for internal invariant violations, fatal() for user errors,
 * assert() for checked invariants.
 */

#ifndef WSEARCH_UTIL_LOGGING_HH
#define WSEARCH_UTIL_LOGGING_HH

#include <cstdio>
#include <cstdlib>

namespace wsearch {

/**
 * Abort due to an internal library bug. Use when a condition that should
 * never happen (regardless of user input) is detected.
 */
[[noreturn]] inline void
panicImpl(const char *file, int line, const char *msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg, file, line);
    std::abort();
}

/**
 * Exit due to a user-facing configuration error (bad parameters, invalid
 * workload definitions, etc.). Not a library bug.
 */
[[noreturn]] inline void
fatalImpl(const char *file, int line, const char *msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg, file, line);
    std::exit(1);
}

} // namespace wsearch

#define wsearch_panic(msg) ::wsearch::panicImpl(__FILE__, __LINE__, msg)
#define wsearch_fatal(msg) ::wsearch::fatalImpl(__FILE__, __LINE__, msg)

/** Assert an invariant that indicates a library bug when violated. */
#define wsearch_assert(cond)                                               \
    do {                                                                   \
        if (!(cond))                                                       \
            wsearch_panic("assertion failed: " #cond);                     \
    } while (0)

#endif // WSEARCH_UTIL_LOGGING_HH
