/**
 * @file
 * Unit tests for the scope-based host-time accounting perfbench reads:
 * the component table, zero accumulation when disabled, nested-scope
 * time accounting, cycle attribution, deltas, cross-thread merging,
 * and depth-overflow behavior.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <thread>

#include "common/prof.hh"

using namespace desc;
using namespace desc::prof;

namespace {

/** Saves and restores the enabled flag and wipes accumulated state,
 *  so tests cannot leak profiler state into each other. */
struct ProfStateGuard
{
    bool saved = enabled();

    ProfStateGuard() { resetForTest(); }

    ~ProfStateGuard()
    {
        setEnabled(saved);
        resetForTest();
    }
};

/** Busy-wait so a scope accumulates measurable wall time. */
void
spinFor(std::chrono::nanoseconds d)
{
    auto t0 = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - t0 < d) {
    }
}

void
nestScopes(unsigned n)
{
    if (n == 0)
        return;
    DESC_PROF_SCOPE(Encoder);
    nestScopes(n - 1);
}

} // namespace

TEST(ProfComponents, NamesUniqueNonEmptyAndDotted)
{
    std::set<std::string> seen;
    for (unsigned c = 0; c < kNumComponents; c++) {
        std::string name = componentName(Component(c));
        EXPECT_FALSE(name.empty());
        EXPECT_TRUE(seen.insert(name).second)
            << "duplicate component name " << name;
        for (char ch : name)
            EXPECT_TRUE((ch >= 'a' && ch <= 'z') || ch == '.')
                << "unexpected character in " << name;
    }
}

TEST(ProfScopes, DisabledScopesAccumulateNothing)
{
    ProfStateGuard guard;
    setEnabled(false);
    for (int i = 0; i < 100; i++) {
        DESC_PROF_SCOPE(CacheAccess);
        DESC_PROF_CYCLES(CacheAccess, 7);
    }
    Profile p = threadProfile();
    EXPECT_EQ(p.scopes(), 0u);
    for (const ComponentTotals &c : p.comp) {
        EXPECT_EQ(c.self_ns, 0u);
        EXPECT_EQ(c.cycles, 0u);
    }
}

TEST(ProfScopes, NestedScopeTimeIsSubtractedFromParentSelf)
{
    ProfStateGuard guard;
    setEnabled(true);
    {
        DESC_PROF_SCOPE(CacheAccess);
        spinFor(std::chrono::microseconds(200));
        {
            DESC_PROF_SCOPE(Encoder);
            spinFor(std::chrono::microseconds(400));
        }
    }
    Profile p = threadProfile();
    const auto &outer = p.comp[unsigned(Component::CacheAccess)];
    const auto &inner = p.comp[unsigned(Component::Encoder)];

    EXPECT_EQ(outer.count, 1u);
    EXPECT_EQ(inner.count, 1u);
    // The child is wholly contained in the parent.
    EXPECT_GE(outer.total_ns, inner.total_ns);
    // Parent self time excludes the child entirely.
    EXPECT_EQ(outer.self_ns, outer.total_ns - inner.total_ns);
    // A leaf's self time is its total time.
    EXPECT_EQ(inner.self_ns, inner.total_ns);
    // Both ran long enough to be visible.
    EXPECT_GE(outer.self_ns, 100'000u);
    EXPECT_GE(inner.self_ns, 300'000u);
}

TEST(ProfScopes, RecursionFoldsIntoOneComponent)
{
    ProfStateGuard guard;
    setEnabled(true);
    nestScopes(8);
    Profile p = threadProfile();
    EXPECT_EQ(p.comp[unsigned(Component::Encoder)].count, 8u);
}

TEST(ProfScopes, CyclesAttributeOnlyWhenEnabled)
{
    ProfStateGuard guard;
    setEnabled(true);
    DESC_PROF_CYCLES(Dram, 123);
    DESC_PROF_CYCLES(Dram, 77);
    setEnabled(false);
    DESC_PROF_CYCLES(Dram, 1000);
    Profile p = threadProfile();
    EXPECT_EQ(p.comp[unsigned(Component::Dram)].cycles, 200u);
}

TEST(ProfScopes, DeltaSinceIsolatesNewWork)
{
    ProfStateGuard guard;
    setEnabled(true);
    {
        DESC_PROF_SCOPE(Runner);
    }
    Profile base = threadProfile();
    {
        DESC_PROF_SCOPE(Runner);
        DESC_PROF_SCOPE(Energy);
    }
    Profile d = deltaSince(base);
    EXPECT_EQ(d.comp[unsigned(Component::Runner)].count, 1u);
    EXPECT_EQ(d.comp[unsigned(Component::Energy)].count, 1u);
    EXPECT_EQ(d.scopes(), 2u);
}

TEST(ProfScopes, MergedProfileSeesJoinedThreads)
{
    ProfStateGuard guard;
    setEnabled(true);
    Profile before = mergedProfile();
    std::thread worker([] {
        for (int i = 0; i < 5; i++) {
            DESC_PROF_SCOPE(LinkTicked);
        }
        DESC_PROF_CYCLES(LinkTicked, 42);
    });
    worker.join(); // orders the worker's writes before the merge read
    Profile after = mergedProfile();
    const unsigned c = unsigned(Component::LinkTicked);
    EXPECT_EQ(after.comp[c].count - before.comp[c].count, 5u);
    EXPECT_EQ(after.comp[c].cycles - before.comp[c].cycles, 42u);
}

TEST(ProfScopes, DepthOverflowStillCounts)
{
    ProfStateGuard guard;
    setEnabled(true);
    nestScopes(40); // beyond the 32-deep timing stack
    Profile p = threadProfile();
    EXPECT_EQ(p.comp[unsigned(Component::Encoder)].count, 40u);
}
