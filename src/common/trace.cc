#include "common/trace.hh"

#include <cstring>

#include "common/contract.hh"
#include "common/env.hh"

namespace desc::trace {

namespace {

constexpr const char *kNames[kNumChannels] = {
    "link", "cache", "dram", "runner"};

/** Explicit override from setStream(); nullptr means "default".
 *  Atomic: a test may redirect while sweep workers are emitting. */
std::atomic<std::FILE *> g_override{nullptr};

/** Stream selected by DESC_TRACE_FILE, opened at startup so a bad
 *  path fails before any pool worker traces; never closed, since
 *  trace points may fire from static destructors. */
std::FILE *const g_file =
    env::openPath(env::Var::TraceFile, env::raw(env::Var::TraceFile), "w");

std::FILE *
stream()
{
    std::FILE *o = g_override.load(std::memory_order_acquire);
    return o ? o : g_file ? g_file : stderr;
}

void
write(Channel c, const char *cycle_field, const std::string &msg)
{
    const std::string &ctx = threadLogContext();
    std::FILE *out = stream();
    std::lock_guard<std::mutex> lock(logMutex());
    if (ctx.empty()) {
        std::fprintf(out, "%12s: %s: %s\n", cycle_field,
                     channelName(c), msg.c_str());
    } else {
        std::fprintf(out, "%12s: %s: [%s] %s\n", cycle_field,
                     channelName(c), ctx.c_str(), msg.c_str());
    }
}

} // namespace

namespace detail {

std::atomic<std::uint32_t> mask = [] {
    return parseSpec(env::raw(env::Var::Trace));
}();

} // namespace detail

const char *
channelName(Channel c)
{
    DESC_ASSERT(unsigned(c) < kNumChannels, "bad trace channel");
    return kNames[unsigned(c)];
}

std::uint32_t
parseSpec(const char *spec)
{
    if (!spec || !*spec)
        return 0;

    std::uint32_t mask = 0;
    const char *p = spec;
    while (*p) {
        const char *end = std::strchr(p, ',');
        std::string name(p, end ? std::size_t(end - p) : std::strlen(p));
        p = end ? end + 1 : p + name.size();

        if (name.empty())
            continue;
        if (name == "all") {
            mask |= (1u << kNumChannels) - 1;
            continue;
        }
        bool found = false;
        for (unsigned c = 0; c < kNumChannels; c++) {
            if (name == kNames[c]) {
                mask |= 1u << c;
                found = true;
                break;
            }
        }
        if (!found) {
            DESC_FATAL("unknown trace channel \"", name,
                       "\" (known: link, cache, dram, runner, all)");
        }
    }
    return mask;
}

void
setMask(std::uint32_t mask)
{
    detail::mask.store(mask, std::memory_order_relaxed);
}

std::uint32_t
mask()
{
    return detail::mask.load(std::memory_order_relaxed);
}

void
setStream(std::FILE *out)
{
    g_override.store(out, std::memory_order_release);
}

void
emit(Channel c, std::uint64_t cycle, const std::string &msg)
{
    char field[24];
    std::snprintf(field, sizeof(field), "%llu",
                  (unsigned long long)cycle);
    write(c, field, msg);
}

void
emitHost(Channel c, const std::string &msg)
{
    write(c, "-", msg);
}

} // namespace desc::trace
