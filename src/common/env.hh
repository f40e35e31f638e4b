/**
 * @file
 * Typed registry for every DESC_* environment knob.
 *
 * Every knob is declared exactly once in env_registry.def with a
 * name, a type word, a human-readable default, and a doc string; this
 * header generates the Var enum and the metadata accessors from that
 * table. All environment access in the tree goes through raw() /
 * the typed getters below — desc-lint's env-registry check fails
 * any std::getenv call outside common/env.cc, so an undeclared knob
 * cannot be read at all, and `desc_lint.py --list-env` can emit
 * the complete, always-current table for the docs.
 *
 * Parsing is strict: a set-but-invalid value is a fatal error that
 * names the variable, the value and what is wanted, so a typo never
 * half-works (DESC_SIM_SCALE=0,25 would otherwise run at the default
 * scale); an unset variable falls back to the caller's default
 * silently.
 * The getters are read-through — they consult the environment on
 * every call so tests can setenv/unsetenv around them — and callers
 * on simulation hot paths memoize the result behind a magic static
 * (simScale(), the trace mask), so steady-state code performs no
 * environment lookups at all; bench/perf_kernel asserts that via
 * lookupCount().
 */

#ifndef DESC_COMMON_ENV_HH
#define DESC_COMMON_ENV_HH

#include <cstdint>
#include <cstdio>
#include <string>

namespace desc::env {

/** One enumerator per registered DESC_* variable. */
enum class Var : unsigned {
#define DESC_ENV_VAR(id, name, type, def, doc) id,
#include "common/env_registry.def"
#undef DESC_ENV_VAR
};

constexpr unsigned kNumVars = 0
#define DESC_ENV_VAR(id, name, type, def, doc) +1
#include "common/env_registry.def"
#undef DESC_ENV_VAR
    ;

/** Registry metadata for one knob, as declared in env_registry.def. */
struct Info
{
    const char *name; ///< environment variable name ("DESC_SIM_JOBS")
    const char *type; ///< type vocabulary word ("int", "path", ...)
    const char *def;  ///< human-readable default ("1.0", "unset")
    const char *doc;  ///< one-line description for the docs table
};

/** Metadata for @p v (static storage, never fails). */
const Info &info(Var v);

/** Environment variable name for @p v. */
const char *name(Var v);

/**
 * Raw environment lookup; nullptr when unset. The only std::getenv
 * call site in the tree lives behind this function.
 */
const char *raw(Var v);

/** True when the variable is set at all, even to the empty string. */
bool isSet(Var v);

/**
 * Strict boolean: unset/empty returns @p def; "0"/"1" parse; anything
 * else is fatal.
 */
bool boolOr(Var v, bool def);

/**
 * Strict unsigned integer in [@p lo, @p hi]: unset returns @p def;
 * empty, out-of-range, signed, or non-numeric values are fatal.
 */
std::uint64_t uintOr(Var v, std::uint64_t def, std::uint64_t lo,
                     std::uint64_t hi);

/**
 * Strict positive finite double: unset/empty returns @p def;
 * garbage, non-finite, or non-positive values are fatal.
 */
double positiveFloatOr(Var v, double def);

/** String value, or @p def when unset or empty. */
std::string stringOr(Var v, const char *def);

/**
 * Pure parse cores behind the getters above: same validation and
 * diagnostics, but applied to @p value instead of the environment,
 * so tests can exercise boundary and garbage inputs without
 * touching process state.
 */
bool parseBool(Var v, const char *value, bool def);
std::uint64_t parseUint(Var v, const char *value, std::uint64_t def,
                        std::uint64_t lo, std::uint64_t hi);
double parsePositiveFloat(Var v, const char *value, double def);

/**
 * Open the output file @p path names for knob @p v with fopen @p mode:
 * nullptr when @p path is unset or empty; a path that cannot be
 * opened is fatal, naming the variable, the path and the reason.
 */
std::FILE *openPath(Var v, const char *path, const char *mode);

/**
 * Total raw() lookups so far in this process. Environment reads are
 * a startup activity: hot components memoize their knobs, and
 * bench/perf_kernel asserts this counter does not move inside the
 * measured simulation regions.
 */
std::uint64_t lookupCount();

} // namespace desc::env

#endif // DESC_COMMON_ENV_HH
