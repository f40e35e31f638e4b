/**
 * @file
 * Scope-based host-time accounting, read by perfbench.
 *
 * DESC_PROF_SCOPE(component) marks a region of host work as belonging
 * to one simulator component; while enabled, the accounting sums wall
 * time, entry counts, and (via DESC_PROF_CYCLES) simulated-cycle spans
 * into per-thread, per-component totals. Time inside a nested scope
 * is subtracted from the enclosing scope's self time, so the
 * per-component self_ns totals partition the instrumented wall clock.
 *
 * Accounting starts off, and only code turns it on (setEnabled):
 * perfbench's traced pass reads mergedProfile() for
 * prof.overhead_pct and prof.share_gap_pct, and bench/perf_kernel
 * times a run with it on and off. No knob, sidecar or report reads
 * it.
 *
 * Cost contract (same one-branch pattern as src/common/trace): a
 * disabled scope is one relaxed atomic load and a predictable branch
 * in the constructor plus one branch in the destructor — cheap enough
 * to stay compiled into the hot simulation paths. bench/perf_kernel
 * measures this as runsystem_prof_overhead_pct and CI gates it.
 */

#ifndef DESC_COMMON_PROF_HH
#define DESC_COMMON_PROF_HH

#include <atomic>
#include <cstdint>

namespace desc::prof {

/**
 * Profiled components. The central table: every DESC_PROF_SCOPE /
 * DESC_PROF_CYCLES site names one of these, and desc-lint checks the
 * enum against the kNames table in prof.cc (dots removed, lowered).
 */
enum class Component : unsigned {
    Runner,       //!< sweep worker: whole runAppCached jobs
    Energy,       //!< post-run CACTI/McPAT energy accounting
    CpuInorder,   //!< in-order SMT core dispatch and thread events
    CpuOoo,       //!< out-of-order core dispatch and exec events
    CacheAccess,  //!< L1 lookup fast path (MemHierarchy::access)
    CacheRequest, //!< L2 request handling (hits, directory work)
    CacheMiss,    //!< L2 miss path: tag probe, fill, eviction
    CacheRespond, //!< response fan-out back into the L1s
    Dram,         //!< DDR3 command scheduling and completions
    LinkTicked,   //!< DESC link cycle-accurate ticked transfers
    Encoder,      //!< TransferScheme::transfer block encoding
};

constexpr unsigned kNumComponents = 11;

/** Dotted lower-case component name ("cache.access"). */
const char *componentName(Component c);

/** Per-component aggregate. self_ns excludes nested profiled scopes;
 *  total_ns includes them. cycles are simulated-cycle spans attributed
 *  with DESC_PROF_CYCLES. */
struct ComponentTotals
{
    std::uint64_t count = 0;
    std::uint64_t self_ns = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t cycles = 0;
};

/** A snapshot of all component totals (one thread, or merged). */
struct Profile
{
    ComponentTotals comp[kNumComponents];

    /** Total scope entries across all components. */
    std::uint64_t scopes() const;

    void add(const Profile &other);

    /** Componentwise this - base (counters are monotonic). */
    Profile minus(const Profile &base) const;
};

namespace detail {

/** Live flag; starts false. Atomic for the same reason as the trace
 *  mask: tests and benches flip it while sweep workers poll it. */
extern std::atomic<bool> live;

void enterScope(unsigned comp);
void exitScope();
void addCycles(unsigned comp, std::uint64_t cycles);

} // namespace detail

/** True when profiling is live. One load + one branch. */
inline bool
enabled()
{
    return detail::live.load(std::memory_order_relaxed);
}

/** Enable/disable profiling at runtime (tests, benches). */
void setEnabled(bool on);

/** RAII scope marker; see DESC_PROF_SCOPE. */
class Scope
{
  public:
    explicit Scope(Component c) : _active(enabled())
    {
        if (_active)
            detail::enterScope(unsigned(c));
    }

    ~Scope()
    {
        if (_active)
            detail::exitScope();
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    bool _active;
};

/** The calling thread's accumulated profile. */
Profile threadProfile();

/** threadProfile() minus @p base — the delta since a snapshot. */
Profile deltaSince(const Profile &base);

/**
 * All threads' profiles summed. Callers must order the reads after
 * the writers' scope exits (join the threads, or synchronize through
 * the runner's batch-completion lock).
 */
Profile mergedProfile();

/** Clear every thread's accumulated totals. */
void resetForTest();

} // namespace desc::prof

#define DESC_PROF_CAT2(a, b) a##b
#define DESC_PROF_CAT(a, b) DESC_PROF_CAT2(a, b)

/** Attribute the enclosing block's host time to @p comp. */
#define DESC_PROF_SCOPE(comp)                                             \
    ::desc::prof::Scope DESC_PROF_CAT(desc_prof_scope_, __LINE__)         \
    {                                                                     \
        ::desc::prof::Component::comp                                     \
    }

/** Attribute @p n simulated cycles to @p comp (only when live). */
#define DESC_PROF_CYCLES(comp, n)                                         \
    do {                                                                  \
        if (::desc::prof::enabled()) {                                    \
            ::desc::prof::detail::addCycles(                              \
                unsigned(::desc::prof::Component::comp), (n));            \
        }                                                                 \
    } while (0)

#endif // DESC_COMMON_PROF_HH
