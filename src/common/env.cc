#include "common/env.hh"

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/contract.hh"
#include "common/log.hh"

namespace desc::env {

namespace {

constexpr Info kInfos[kNumVars] = {
#define DESC_ENV_VAR(id, name, type, def, doc) {name, type, def, doc},
#include "common/env_registry.def"
#undef DESC_ENV_VAR
};

std::atomic<std::uint64_t> g_lookups{0};

} // namespace

const Info &
info(Var v)
{
    DESC_ASSERT(unsigned(v) < kNumVars, "bad env::Var ", unsigned(v));
    return kInfos[unsigned(v)];
}

const char *
name(Var v)
{
    return info(v).name;
}

const char *
raw(Var v)
{
    g_lookups.fetch_add(1, std::memory_order_relaxed);
    return std::getenv(info(v).name);
}

bool
isSet(Var v)
{
    return raw(v) != nullptr;
}

bool
parseBool(Var v, const char *value, bool def)
{
    if (!value || !*value)
        return def;
    if (std::strcmp(value, "0") == 0)
        return false;
    if (std::strcmp(value, "1") == 0)
        return true;
    DESC_FATAL("invalid ", name(v), "=\"", value, "\" (want 0 or 1)");
}

std::uint64_t
parseUint(Var v, const char *value, std::uint64_t def,
          std::uint64_t lo, std::uint64_t hi)
{
    if (!value)
        return def;
    char *end = nullptr;
    errno = 0;
    unsigned long long parsed = std::strtoull(value, &end, 10);
    // strtoull silently wraps negatives; reject any sign explicitly.
    bool negative = std::strchr(value, '-') != nullptr;
    if (end == value || *end != '\0' || errno != 0 || negative
        || parsed < lo || parsed > hi) {
        DESC_FATAL("invalid ", name(v), "=\"", value,
                   "\" (want an integer in [", lo, ", ", hi, "])");
    }
    return parsed;
}

double
parsePositiveFloat(Var v, const char *value, double def)
{
    if (!value || !*value)
        return def;
    char *end = nullptr;
    errno = 0;
    double parsed = std::strtod(value, &end);
    if (end == value || *end != '\0' || errno == ERANGE
        || !std::isfinite(parsed) || parsed <= 0.0) {
        DESC_FATAL("invalid ", name(v), "=\"", value,
                   "\" (want a finite value > 0)");
    }
    return parsed;
}

std::FILE *
openPath(Var v, const char *path, const char *mode)
{
    if (!path || !*path)
        return nullptr;
    std::FILE *f = std::fopen(path, mode);
    if (!f) {
        const int err = errno;
        DESC_FATAL("cannot open ", name(v), "=\"", path, "\": ",
                   std::strerror(err));
    }
    return f;
}

bool
boolOr(Var v, bool def)
{
    return parseBool(v, raw(v), def);
}

std::uint64_t
uintOr(Var v, std::uint64_t def, std::uint64_t lo, std::uint64_t hi)
{
    return parseUint(v, raw(v), def, lo, hi);
}

double
positiveFloatOr(Var v, double def)
{
    return parsePositiveFloat(v, raw(v), def);
}

std::string
stringOr(Var v, const char *def)
{
    const char *value = raw(v);
    return std::string(value && *value ? value : def);
}

std::uint64_t
lookupCount()
{
    return g_lookups.load(std::memory_order_relaxed);
}

} // namespace desc::env
