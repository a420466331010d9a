#include "util/env.hh"

#include <cstdlib>
#include <limits>
#include <string>

#include "util/logging.hh"

namespace wsearch {

bool
parseU64(const char *s, uint64_t &out)
{
    if (!*s)
        return false;
    uint64_t v = 0;
    for (; *s; ++s) {
        if (*s < '0' || *s > '9')
            return false;
        const uint64_t digit = static_cast<uint64_t>(*s - '0');
        if (v > (std::numeric_limits<uint64_t>::max() - digit) / 10)
            return false; // overflow
        v = v * 10 + digit;
    }
    out = v;
    return true;
}

uint64_t
envU64(const char *name, uint64_t fallback)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    uint64_t parsed = 0;
    if (!parseU64(v, parsed)) {
        const std::string msg = std::string(name) + "=\"" + v +
            "\" is not an unsigned decimal integer";
        wsearch_fatal(msg.c_str());
    }
    return parsed;
}

uint32_t
envU32(const char *name, uint32_t fallback)
{
    const uint64_t v = envU64(name, fallback);
    if (v > std::numeric_limits<uint32_t>::max()) {
        const std::string msg = std::string(name) + "=\"" +
            std::to_string(v) + "\" is out of range (max 4294967295)";
        wsearch_fatal(msg.c_str());
    }
    return static_cast<uint32_t>(v);
}

bool
fastMode()
{
    return envU64("WSEARCH_FAST", 0) != 0;
}

uint64_t
traceBudget(uint64_t nominal)
{
    const uint64_t override_records = envU64("WSEARCH_RECORDS", 0);
    if (override_records)
        return override_records;
    return fastMode() ? nominal / 8 : nominal;
}

} // namespace wsearch
