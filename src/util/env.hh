/**
 * @file
 * Environment-driven experiment budgets. The bench harnesses call
 * traceBudget() to decide how many trace records to simulate per
 * experiment point; WSEARCH_FAST=1 shrinks budgets for smoke runs and
 * WSEARCH_RECORDS=<n> overrides them entirely.
 */

#ifndef WSEARCH_UTIL_ENV_HH
#define WSEARCH_UTIL_ENV_HH

#include <cstdint>

namespace wsearch {

/**
 * Parse @p s as a full unsigned decimal: digits only (no sign, no
 * whitespace, no trailing characters) and no overflow. Returns false
 * (leaving @p out untouched) on anything else.
 */
bool parseU64(const char *s, uint64_t &out);

/**
 * Read an unsigned integer env var, or @p fallback when unset or
 * empty. Any other value that parseU64 rejects ("12abc", "-1", a
 * value past 2^64-1) is fatal, naming the variable and its value.
 */
uint64_t envU64(const char *name, uint64_t fallback);

/**
 * envU64 for a 32-bit knob: additionally fatal, naming the variable
 * and its value, when the value exceeds 2^32-1 (instead of silently
 * wrapping on a narrowing cast).
 */
uint32_t envU32(const char *name, uint32_t fallback);

/** True when WSEARCH_FAST is set to a nonzero value. */
bool fastMode();

/**
 * Scale a nominal record budget: full value normally, 1/8 in fast mode,
 * or the WSEARCH_RECORDS override when present.
 */
uint64_t traceBudget(uint64_t nominal);

} // namespace wsearch

#endif // WSEARCH_UTIL_ENV_HH
