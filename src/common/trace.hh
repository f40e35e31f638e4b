/**
 * @file
 * Categorized, cycle-stamped diagnostic tracing (gem5 DPRINTF style).
 *
 * Trace points are grouped into channels; the DESC_TRACE environment
 * variable selects which channels are live at process startup, e.g.
 *
 *     DESC_TRACE=link,cache ./bench/fig16_scheme_energy
 *     DESC_TRACE=all        ./examples/waveforms
 *
 * Every line is `<cycle>: <channel>: <message>`, prefixed with the
 * firing thread's log context tag (see setThreadLogContext) so events
 * from parallel sweep workers stay attributable. Output goes to
 * stderr unless DESC_TRACE_FILE names a file.
 *
 * The DESC_TRACE_EVENT macro evaluates its message arguments only
 * when the channel is enabled; a disabled channel costs one global
 * load and one branch per trace point, so tracing can stay compiled
 * into the hot simulation paths (the fig16 harness measures no
 * slowdown with tracing disabled).
 */

#ifndef DESC_COMMON_TRACE_HH
#define DESC_COMMON_TRACE_HH

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>

#include "common/log.hh"

namespace desc::trace {

/** Trace categories, one bit each in the channel mask. */
enum class Channel : unsigned {
    Link,   //!< DESC wire protocol: transfers, waves, strobes
    Cache,  //!< L2 requests, bank transfers, evictions, recalls
    Dram,   //!< DDR3 scheduling: row hits/misses, completions
    Runner, //!< host-side experiment runner and run cache
};

constexpr unsigned kNumChannels = 4;

/** Lower-case channel name as used in DESC_TRACE and trace lines. */
const char *channelName(Channel c);

/**
 * Parse a DESC_TRACE-style spec ("link,cache", "all", "") into a
 * channel bitmask. An unknown name is fatal.
 */
std::uint32_t parseSpec(const char *spec);

namespace detail {

/**
 * Live channel bitmask; initialized from DESC_TRACE before main().
 * Atomic because sweep workers read it at every trace point while
 * tests (or a driver) may flip channels with setMask(); relaxed order
 * suffices — the mask carries no data dependency, and on the targets
 * we care about a relaxed load costs the same as a plain one.
 */
extern std::atomic<std::uint32_t> mask;

} // namespace detail

/** True when @p c is selected. One load + one branch. */
inline bool
enabled(Channel c)
{
    return (detail::mask.load(std::memory_order_relaxed)
            >> unsigned(c)) & 1u;
}

/** Replace the channel mask at runtime (tests / programmatic use). */
void setMask(std::uint32_t mask);

/** The current channel mask. */
std::uint32_t mask();

/**
 * Redirect trace output. Pass nullptr to return to the default
 * (DESC_TRACE_FILE if set, else stderr). The caller keeps ownership
 * of the stream.
 */
void setStream(std::FILE *out);

/** Emit one cycle-stamped line on channel @p c (assumes enabled()). */
void emit(Channel c, std::uint64_t cycle, const std::string &msg);

/** Emit a host-side (un-cycled) line on channel @p c. */
void emitHost(Channel c, const std::string &msg);

} // namespace desc::trace

/** Cycle-stamped trace point; args are evaluated only when live. */
#define DESC_TRACE_EVENT(chan, cycle, ...)                                \
    do {                                                                  \
        if (::desc::trace::enabled(::desc::trace::Channel::chan)) {       \
            ::desc::trace::emit(::desc::trace::Channel::chan, (cycle),    \
                                ::desc::detail::concat(__VA_ARGS__));     \
        }                                                                 \
    } while (0)

/** Host-side trace point (no simulated cycle). */
#define DESC_TRACE_HOST(chan, ...)                                        \
    do {                                                                  \
        if (::desc::trace::enabled(::desc::trace::Channel::chan)) {       \
            ::desc::trace::emitHost(::desc::trace::Channel::chan,         \
                                    ::desc::detail::concat(__VA_ARGS__)); \
        }                                                                 \
    } while (0)

#endif // DESC_COMMON_TRACE_HH
