/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "sim/eventq.hh"

using namespace desc;
using namespace desc::sim;

namespace {

using Log = std::vector<std::pair<int, Cycle>>;

/**
 * Intrusive test event: appends (id, now) to a shared log, schedules
 * each of its spawns at their absolute cycles, then re-schedules
 * itself after its next hop (if any hops remain).
 */
struct LogEvent final : Event
{
    void
    process() override
    {
        log->push_back({id, eq->now()});
        for (auto &[ev, when] : spawns)
            eq->schedule(*ev, when);
        if (next_hop < hops.size())
            eq->scheduleIn(*this, hops[next_hop++]);
    }

    EventQueue *eq = nullptr;
    Log *log = nullptr;
    int id = 0;
    std::vector<std::pair<Event *, Cycle>> spawns;
    std::vector<Cycle> hops;
    std::size_t next_hop = 0;
};

/** @p n LogEvents with ids 0..n-1 on @p eq, logging into @p log. */
std::vector<LogEvent>
logEvents(EventQueue &eq, Log &log, int n)
{
    std::vector<LogEvent> evs(n);
    for (int i = 0; i < n; i++) {
        evs[i].eq = &eq;
        evs[i].log = &log;
        evs[i].id = i;
    }
    return evs;
}

/** The ids of @p log in firing order. */
std::vector<int>
ids(const Log &log)
{
    std::vector<int> out;
    for (const auto &[id, when] : log)
        out.push_back(id);
    return out;
}

} // namespace

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    Log log;
    auto evs = logEvents(eq, log, 3);
    eq.schedule(evs[2], 30);
    eq.schedule(evs[0], 10);
    eq.schedule(evs[1], 20);
    eq.run();
    EXPECT_EQ(ids(log), (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameCycleIsFifo)
{
    EventQueue eq;
    Log log;
    auto evs = logEvents(eq, log, 5);
    for (auto &ev : evs)
        eq.schedule(ev, 7);
    eq.run();
    EXPECT_EQ(ids(log), (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    Log log;
    auto evs = logEvents(eq, log, 1);
    evs[0].hops.assign(9, 5);
    eq.schedule(evs[0], 0);
    eq.run();
    EXPECT_EQ(log.size(), 10u);
    EXPECT_EQ(eq.now(), 45u);
}

TEST(EventQueue, SameCycleSelfScheduleRuns)
{
    EventQueue eq;
    Log log;
    auto evs = logEvents(eq, log, 2);
    evs[0].spawns = {{&evs[1], 5}};
    eq.schedule(evs[0], 5);
    eq.run();
    EXPECT_EQ(log, (Log{{0, 5}, {1, 5}}));
}

TEST(EventQueue, RunLimitStopsEarly)
{
    EventQueue eq;
    Log log;
    auto evs = logEvents(eq, log, 2);
    eq.schedule(evs[0], 10);
    eq.schedule(evs[1], 100);
    eq.run(50);
    EXPECT_EQ(log.size(), 1u);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(log.size(), 2u);
}

TEST(EventQueue, ReturnsExecutedCount)
{
    EventQueue eq;
    Log log;
    auto evs = logEvents(eq, log, 7);
    for (int i = 0; i < 7; i++)
        eq.schedule(evs[i], Cycle(i));
    EXPECT_EQ(eq.run(), 7u);
}

// The invariants below are what make parallel figure batches
// comparable to serial ones: every simulation's event interleaving
// is a pure function of its own schedule calls.

TEST(EventQueue, CallbackAtCurrentCycleRunsAfterOlderSameCycleEvents)
{
    EventQueue eq;
    Log log;
    auto evs = logEvents(eq, log, 4);
    // The first cycle-5 event schedules another cycle-5 event; FIFO
    // order puts it after the pre-existing cycle-5 events but before
    // anything later.
    evs[0].spawns = {{&evs[2], 5}};
    eq.schedule(evs[0], 5);
    eq.schedule(evs[1], 5);
    eq.schedule(evs[3], 6);
    eq.run();
    EXPECT_EQ(ids(log), (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, SelfScheduleAtCurrentCycleKeepsNow)
{
    EventQueue eq;
    Log log;
    auto evs = logEvents(eq, log, 1);
    evs[0].hops = {0};
    eq.schedule(evs[0], 9);
    eq.run();
    EXPECT_EQ(log, (Log{{0, 9}, {0, 9}}));
    EXPECT_EQ(eq.now(), 9u);
}

TEST(EventQueue, RunLimitIsInclusive)
{
    EventQueue eq;
    Log log;
    auto evs = logEvents(eq, log, 2);
    eq.schedule(evs[0], 50);
    eq.schedule(evs[1], 51);
    EXPECT_EQ(eq.run(50), 1u);
    EXPECT_EQ(log.size(), 1u);
    EXPECT_EQ(eq.now(), 50u);
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, NowDoesNotAdvancePastLimit)
{
    EventQueue eq;
    Log log;
    auto evs = logEvents(eq, log, 2);
    eq.schedule(evs[0], 10);
    eq.schedule(evs[1], 100);
    eq.run(40);
    // Time stands at the last executed event, not at the limit or
    // the next pending event.
    EXPECT_EQ(eq.now(), 10u);
    eq.run();
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, EventsAtLimitMaySpawnSameCycleWork)
{
    EventQueue eq;
    Log log;
    auto evs = logEvents(eq, log, 3);
    evs[0].spawns = {{&evs[1], 20}, {&evs[2], 21}};
    eq.schedule(evs[0], 20);
    // Both cycle-20 events run under run(20); the cycle-21 spawn
    // stays pending.
    EXPECT_EQ(eq.run(20), 2u);
    EXPECT_EQ(ids(log), (std::vector<int>{0, 1}));
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(ids(log), (std::vector<int>{0, 1, 2}));
}

// Scheduling contracts are DESC_DCHECKs: they trap with context in
// Debug builds and compile to nothing on the Release hot path.
#ifndef NDEBUG

TEST(EventQueueDeath, PastSchedulingPanics)
{
    EventQueue eq;
    Log log;
    auto evs = logEvents(eq, log, 2);
    eq.schedule(evs[0], 10);
    eq.run();
    EXPECT_DEATH(eq.schedule(evs[1], 5), "into the past");
}

TEST(EventQueueDeath, DoubleSchedulePanics)
{
    EventQueue eq;
    LogEvent a;
    eq.schedule(a, 10);
    EXPECT_DEATH(eq.schedule(a, 20), "double-schedule of a live event");
}

#endif // !NDEBUG

// Intrusive-event coverage: the steady-state component pattern and
// the scheduling distances and run limits the models rely on.

TEST(EventQueueIntrusive, SameCycleFifoAcrossNearAndFarScheduling)
{
    // e0..e4 are scheduled for cycle 5000 far in advance; e5..e9 are
    // scheduled for the same cycle from close by (cycle 4900). FIFO
    // order must hold across both scheduling distances.
    EventQueue eq;
    std::vector<std::pair<int, Cycle>> log;
    std::vector<LogEvent> evs(10);
    for (int i = 0; i < 10; i++) {
        evs[i].eq = &eq;
        evs[i].log = &log;
        evs[i].id = i;
    }

    struct Trigger final : Event
    {
        void
        process() override
        {
            for (int i = 5; i < 10; i++)
                eq->schedule((*evs)[i], 5000);
        }
        EventQueue *eq = nullptr;
        std::vector<LogEvent> *evs = nullptr;
    };
    Trigger trig;
    trig.eq = &eq;
    trig.evs = &evs;

    for (int i = 0; i < 5; i++)
        eq.schedule(evs[i], 5000);
    eq.schedule(trig, 4900);
    EXPECT_EQ(eq.run(), 11u);
    ASSERT_EQ(log.size(), 10u);
    for (int i = 0; i < 10; i++) {
        EXPECT_EQ(log[i].first, i);
        EXPECT_EQ(log[i].second, 5000u);
    }
}

TEST(EventQueueIntrusive, SparseFarTimelineRunsInOrder)
{
    EventQueue eq;
    std::vector<std::pair<int, Cycle>> log;
    const Cycle whens[] = {700, 3, 1'000'000'000, 100'000};
    std::vector<LogEvent> evs(4);
    for (int i = 0; i < 4; i++) {
        evs[i].eq = &eq;
        evs[i].log = &log;
        evs[i].id = i;
        eq.schedule(evs[i], whens[i]);
    }
    EXPECT_EQ(eq.run(), 4u);
    ASSERT_EQ(log.size(), 4u);
    EXPECT_EQ(log[0], std::make_pair(1, Cycle{3}));
    EXPECT_EQ(log[1], std::make_pair(0, Cycle{700}));
    EXPECT_EQ(log[2], std::make_pair(3, Cycle{100'000}));
    EXPECT_EQ(log[3], std::make_pair(2, Cycle{1'000'000'000}));
    EXPECT_EQ(eq.now(), 1'000'000'000u);
}

TEST(EventQueueIntrusive, LimitedRunDoesNotFireFarWorkEarly)
{
    // A limited run can scan (and internally reorganize) the timeline
    // well past where simulated time ends up. Far work touched by that
    // scan must still fire at exactly its own cycle in a later run,
    // which starts scanning again from now().
    EventQueue eq;
    Log log;
    auto evs = logEvents(eq, log, 3);
    LogEvent &planter = evs[0], &marker = evs[1], &far = evs[2];

    // The planter's live marker at 1900 keeps the limited run
    // scanning cycle by cycle past 1700 (instead of jumping straight
    // to the far event), so the far event migrates into the wheel
    // while simulated time stays at 1700.
    planter.spawns = {{&marker, 1900}};
    eq.schedule(planter, 1700);
    eq.schedule(far, 2000);

    EXPECT_EQ(eq.run(1850), 1u);
    EXPECT_EQ(eq.now(), 1700u);
    EXPECT_EQ(log, (Log{{0, 1700}}));
    EXPECT_TRUE(marker.scheduled());
    EXPECT_TRUE(far.scheduled());

    EXPECT_EQ(eq.run(), 2u);
    EXPECT_EQ(log, (Log{{0, 1700}, {1, 1900}, {2, 2000}}));
    EXPECT_EQ(eq.now(), 2000u);
}

TEST(EventQueueIntrusive, RandomizedOpsMatchOracle)
{
    // Random schedules, re-scheduling from inside process() (hops of
    // 0 to 599 cycles, so both the wheel and the heap), fresh work
    // scheduled between runs, and the timeline split into random
    // limited runs, checked against a sort-based oracle: every
    // scheduled event fires exactly once per schedule, at its cycle,
    // ordered by (when, schedule order).
    Rng rng(0x5eed);
    for (int trial = 0; trial < 8; trial++) {
        EventQueue eq;
        Log log;
        auto evs = logEvents(eq, log, 24);
        for (auto &ev : evs) {
            const auto hops = rng.below(4);
            for (std::uint64_t h = 0; h < hops; h++)
                ev.hops.push_back(rng.below(600));
        }

        struct Pending
        {
            Cycle when;
            unsigned stamp;
            int id;
        };
        std::vector<Pending> pending;
        std::vector<std::size_t> oracle_hop(evs.size(), 0);
        unsigned stamp = 0;
        Log expect;

        auto schedule = [&](int i, Cycle when) {
            eq.schedule(evs[i], when);
            pending.push_back({when, stamp++, i});
        };
        // Fire the pending records up to @p limit in (when, stamp)
        // order; an event with hops left re-enters the pending set.
        auto oracleRun = [&](Cycle limit) {
            for (;;) {
                std::sort(pending.begin(), pending.end(),
                          [](const Pending &a, const Pending &b) {
                              return a.when != b.when ? a.when < b.when
                                                      : a.stamp < b.stamp;
                          });
                if (pending.empty() || pending.front().when > limit)
                    return;
                const Pending p = pending.front();
                pending.erase(pending.begin());
                expect.push_back({p.id, p.when});
                const auto &hops = evs[p.id].hops;
                if (oracle_hop[p.id] < hops.size())
                    pending.push_back(
                        {p.when + hops[oracle_hop[p.id]++], stamp++, p.id});
            }
        };

        // Half the events start scheduled; the rest are scheduled
        // from outside between limited runs, at or after now().
        int fresh = 0;
        for (; fresh < 12; fresh++)
            schedule(fresh, 1 + rng.below(800));
        Cycle limit = 0;
        while (!eq.empty() || fresh < int(evs.size())) {
            if (fresh < int(evs.size()) && rng.uniform() < 0.5)
                schedule(fresh++, eq.now() + rng.below(600));
            limit += rng.below(400);
            eq.run(limit);
            oracleRun(limit);
            ASSERT_EQ(eq.pending(), pending.size()) << "trial " << trial;
        }

        EXPECT_EQ(log, expect) << "trial " << trial;
        EXPECT_GT(log.size(), 24u) << "trial " << trial;
    }
}

// Allocation-freedom: after warm-up, neither the queue's record
// storage nor an event pool may grow, no matter how many events run.

TEST(EventQueue, RecurringEventsRunAllocationFree)
{
    EventQueue eq;
    struct Tick final : Event
    {
        void
        process() override
        {
            fired++;
            if (*running)
                eq->scheduleIn(*this, 1 + (fired & 7));
        }
        EventQueue *eq = nullptr;
        bool *running = nullptr;
        std::uint64_t fired = 0;
    };

    bool running = true;
    std::vector<Tick> ticks(48);
    for (auto &t : ticks) {
        t.eq = &eq;
        t.running = &running;
        eq.scheduleIn(t, 1);
    }

    eq.run(eq.now() + 10'000); // reach the capacity high-water mark
    const std::size_t cap = eq.recordCapacity();
    const std::uint64_t executed = eq.run(eq.now() + 200'000);
    EXPECT_GT(executed, 1'000'000u);
    EXPECT_EQ(eq.recordCapacity(), cap);

    running = false;
    eq.run();
}

namespace {

/** A pooled object that remembers the argument it was built with. */
struct Item
{
    explicit Item(int *o) : owner(o) {}
    int *const owner;
    int value = 0;
};

/** The component pattern: acquired, scheduled, and released at the
 *  top of its own process(). */
struct PooledEvent final : Event
{
    explicit PooledEvent(Pool<PooledEvent> *p) : pool(p) {}

    void
    process() override
    {
        pool->release(*this);
        (*fired)++;
    }

    Pool<PooledEvent> *const pool;
    int *fired = nullptr;
};

} // namespace

TEST(Pool, AddressesStayPinnedAcrossGrowth)
{
    int owner = 0;
    Pool<Item> pool;
    std::vector<Item *> held;
    for (int i = 0; i < 5000; i++) {
        Item &it = pool.acquire(&owner);
        it.value = i;
        held.push_back(&it);
    }
    EXPECT_EQ(pool.size(), 5000u);
    for (int i = 0; i < 5000; i++) {
        ASSERT_EQ(held[i]->value, i);
        ASSERT_EQ(held[i]->owner, &owner);
    }
}

TEST(Pool, ReuseIsLifo)
{
    int first = 0, second = 0;
    Pool<Item> pool;
    Item &a = pool.acquire(&first);
    pool.acquire(&first);
    Item &c = pool.acquire(&first);
    c.value = 7;
    pool.release(a);
    pool.release(c);

    // The most recently released object comes back first, with its
    // fields as they were: only a fresh object takes the arguments.
    Item &r1 = pool.acquire(&second);
    EXPECT_EQ(&r1, &c);
    EXPECT_EQ(r1.owner, &first);
    EXPECT_EQ(r1.value, 7);
    EXPECT_EQ(&pool.acquire(&second), &a);
    EXPECT_EQ(pool.size(), 3u);

    Item &fresh = pool.acquire(&second);
    EXPECT_EQ(fresh.owner, &second);
    EXPECT_EQ(pool.size(), 4u);
}

TEST(Pool, StopsGrowingAtHighWaterMark)
{
    EventQueue eq;
    Pool<PooledEvent> pool;
    int fired = 0;
    auto burst = [&]() {
        for (int i = 0; i < 100; i++) {
            PooledEvent &ev = pool.acquire(&pool);
            ev.fired = &fired;
            eq.scheduleIn(ev, 1 + i % 7);
        }
        eq.run();
    };
    for (int round = 0; round < 4; round++)
        burst();
    EXPECT_EQ(pool.size(), 100u);
    for (int round = 0; round < 4; round++)
        burst();
    EXPECT_EQ(pool.size(), 100u);
    EXPECT_EQ(fired, 800);
}
