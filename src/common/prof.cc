#include "common/prof.hh"

#include <chrono>
#include <mutex>
#include <vector>

#include "common/contract.hh"

namespace desc::prof {

namespace {

/** Dotted names, index-matched to the Component enum; desc-lint
 *  checks the two stay in sync (dots removed == enum name lowered). */
constexpr const char *kNames[kNumComponents] = {
    "runner",        "energy",     "cpu.inorder", "cpu.ooo",
    "cache.access",  "cache.request", "cache.miss", "cache.respond",
    "dram",          "link.ticked", "encoder",
};

/** Scope stack depth limit; deeper entries are counted, not timed. */
constexpr unsigned kMaxDepth = 32;

std::uint64_t
nowNs()
{
    using namespace std::chrono;
    static const steady_clock::time_point origin = steady_clock::now();
    return std::uint64_t(
        duration_cast<nanoseconds>(steady_clock::now() - origin)
            .count());
}

struct ThreadState
{
    struct Frame
    {
        std::uint8_t comp;
        std::uint64_t start_ns;
        std::uint64_t child_ns;
    };

    // Accumulators are written only by the owning thread. Readers
    // (mergedProfile) must order their read after the writer's scope
    // exits: join the thread, or go through the runner's
    // batch-completion lock.
    ComponentTotals totals[kNumComponents];
    Frame stack[kMaxDepth];
    unsigned depth = 0;
    std::uint64_t overflow_depth = 0;
};

struct Registry
{
    std::mutex mutex;
    std::vector<ThreadState *> threads;
};

/** Leaked, like every ThreadState, so a worker that outlives main()
 *  never races static destruction. */
Registry &
registry()
{
    static Registry *r = new Registry;
    return *r;
}

ThreadState &
threadState()
{
    // Leaked: a worker's accumulated profile must survive until
    // mergedProfile(), which may run after the thread is gone.
    thread_local ThreadState *ts = [] {
        auto *s = new ThreadState;
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        r.threads.push_back(s);
        return s;
    }();
    return *ts;
}

} // namespace

namespace detail {

std::atomic<bool> live{false};

void
enterScope(unsigned comp)
{
    ThreadState &ts = threadState();
    if (ts.depth >= kMaxDepth) {
        // Too deep to time; still counted so totals stay honest.
        ts.totals[comp].count++;
        ts.overflow_depth++;
        return;
    }
    ts.stack[ts.depth++] =
        ThreadState::Frame{std::uint8_t(comp), nowNs(), 0};
}

void
exitScope()
{
    ThreadState &ts = threadState();
    if (ts.overflow_depth > 0) {
        ts.overflow_depth--;
        return;
    }
    DESC_DCHECK(ts.depth > 0, "profiler scope exit without entry");
    const ThreadState::Frame f = ts.stack[--ts.depth];
    const std::uint64_t dur = nowNs() - f.start_ns;

    ComponentTotals &t = ts.totals[f.comp];
    t.count++;
    t.total_ns += dur;
    t.self_ns += dur > f.child_ns ? dur - f.child_ns : 0;
    if (ts.depth > 0)
        ts.stack[ts.depth - 1].child_ns += dur;
}

void
addCycles(unsigned comp, std::uint64_t cycles)
{
    threadState().totals[comp].cycles += cycles;
}

} // namespace detail

const char *
componentName(Component c)
{
    DESC_ASSERT(unsigned(c) < kNumComponents, "bad profiler component");
    return kNames[unsigned(c)];
}

std::uint64_t
Profile::scopes() const
{
    std::uint64_t n = 0;
    for (const auto &t : comp)
        n += t.count;
    return n;
}

void
Profile::add(const Profile &other)
{
    for (unsigned c = 0; c < kNumComponents; c++) {
        comp[c].count += other.comp[c].count;
        comp[c].self_ns += other.comp[c].self_ns;
        comp[c].total_ns += other.comp[c].total_ns;
        comp[c].cycles += other.comp[c].cycles;
    }
}

Profile
Profile::minus(const Profile &base) const
{
    Profile d;
    for (unsigned c = 0; c < kNumComponents; c++) {
        d.comp[c].count = comp[c].count - base.comp[c].count;
        d.comp[c].self_ns = comp[c].self_ns - base.comp[c].self_ns;
        d.comp[c].total_ns = comp[c].total_ns - base.comp[c].total_ns;
        d.comp[c].cycles = comp[c].cycles - base.comp[c].cycles;
    }
    return d;
}

void
setEnabled(bool on)
{
    detail::live.store(on, std::memory_order_relaxed);
}

Profile
threadProfile()
{
    ThreadState &ts = threadState();
    Profile p;
    for (unsigned c = 0; c < kNumComponents; c++)
        p.comp[c] = ts.totals[c];
    return p;
}

Profile
deltaSince(const Profile &base)
{
    return threadProfile().minus(base);
}

Profile
mergedProfile()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    Profile p;
    for (const ThreadState *ts : r.threads) {
        Profile t;
        for (unsigned c = 0; c < kNumComponents; c++)
            t.comp[c] = ts->totals[c];
        p.add(t);
    }
    return p;
}

void
resetForTest()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (ThreadState *ts : r.threads) {
        for (unsigned c = 0; c < kNumComponents; c++)
            ts->totals[c] = ComponentTotals{};
    }
}

} // namespace desc::prof
