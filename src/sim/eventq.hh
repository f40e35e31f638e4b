/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single global cycle-ordered queue; components schedule events at
 * absolute cycles. Events at the same cycle run in scheduling order
 * (FIFO), which keeps component interactions deterministic.
 *
 * The kernel is allocation-free in steady state. Components own
 * reusable gem5-style intrusive Event objects and (re)schedule them;
 * the queue stores plain Event pointers. Near events — within
 * kWheelSpan cycles of now, the overwhelmingly common case — append
 * to a timing-wheel slot in O(1); far events go to a binary heap on
 * (when, seq) and migrate into the wheel as the horizon approaches.
 * All backing vectors reuse their capacity (recordCapacity() lets
 * tests assert it stays flat).
 *
 * Same-cycle FIFO ordering is an invariant of the structure: within
 * a wheel slot, records are appended in schedule-call (= sequence)
 * order — direct appends happen in call order, and heap records
 * migrate in (when, seq) order before any of that cycle's direct
 * same-cycle appends can occur.
 *
 * Events whose number varies at runtime (cache transactions, DRAM
 * completions, OoO bursts) come from a per-component Pool: pinned
 * storage plus a LIFO free list that stops growing at the high-water
 * mark of events in flight.
 */

#ifndef DESC_SIM_EVENTQ_HH
#define DESC_SIM_EVENTQ_HH

#include <array>
#include <deque>
#include <queue>
#include <utility>
#include <vector>

#include "common/contract.hh"
#include "common/log.hh"
#include "common/types.hh"

namespace desc::sim {

class EventQueue;

/**
 * Base class of all scheduled work. Components derive from Event,
 * implement process(), and keep the object alive while it is
 * scheduled; the queue never owns component events. An event can be
 * scheduled on at most one cycle at a time, and is marked idle just
 * before process() runs, so process() may immediately schedule the
 * same object again (the recurring-event idiom). Events are pinned:
 * their address is registered with the queue, so they are
 * deliberately neither copyable nor movable.
 */
class Event
{
  public:
    Event() = default;
    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;
    virtual ~Event() = default;

    /** True while the event sits in a queue awaiting execution. */
    bool scheduled() const { return _scheduled; }

  protected:
    /** The event's action; runs with the queue's now() == when(). */
    virtual void process() = 0;

  private:
    friend class EventQueue;

    Cycle _when = 0;
    bool _scheduled = false;
};

class EventQueue
{
  public:
    /** Schedule @p ev at absolute cycle @p when (>= now()). */
    void
    schedule(Event &ev, Cycle when)
    {
        DESC_DCHECK(when >= _now, "scheduling into the past: ", when,
                    " < ", _now);
        DESC_DCHECK(!ev.scheduled(),
                    "double-schedule of a live event (when=", ev._when,
                    ", requested=", when, ")");
        ev._when = when;
        ev._scheduled = true;
        if (when - _now < kWheelSpan) {
            _wheel[when & kWheelMask].push_back(&ev);
            _wheel_recs++;
        } else {
            _heap.push(Rec{when, _next_seq, &ev});
        }
        _next_seq++;
        _live++;
    }

    /** Schedule @p ev @p delta cycles from now. */
    void scheduleIn(Event &ev, Cycle delta) { schedule(ev, _now + delta); }

    Cycle now() const { return _now; }
    bool empty() const { return _live == 0; }
    std::size_t pending() const { return _live; }

    /**
     * Run events until the queue drains or simulated time exceeds
     * @p limit. Returns the number of events executed.
     */
    std::uint64_t
    run(Cycle limit = ~Cycle{0})
    {
        std::uint64_t executed = 0;
        // The scan cursor walks cycles ahead of _now; _now itself only
        // advances when an event actually executes, so scanning empty
        // cycles never moves simulated time.
        Cycle scan = _now;
        while (_live != 0) {
            // Pull far records that have entered the wheel's horizon.
            // Popping in (when, seq) order keeps per-slot appends in
            // seq order.
            while (!_heap.empty() && _heap.top().when - scan < kWheelSpan) {
                const Rec &top = _heap.top();
                _wheel[top.when & kWheelMask].push_back(top.ev);
                _wheel_recs++;
                _heap.pop();
            }
            if (_wheel_recs == 0) {
                // Every queued record is live, so _live != 0 here
                // means the heap holds the next event.
                Cycle next = _heap.top().when;
                if (next > limit)
                    break;
                scan = next; // jump the empty gap in one step
                continue;
            }
            if (scan > limit)
                break;
            // Events may append same-cycle work to this slot while it
            // is being processed, so iterate by index and re-read the
            // size (push_back can also reallocate the slot). An entry
            // whose when is a whole wheel turn away (possible when a
            // later run() revisits cycles an earlier limited run()
            // scanned past) is kept for that future visit.
            auto &slot = _wheel[scan & kWheelMask];
            std::size_t keep = 0;
            for (std::size_t i = 0; i < slot.size(); i++) {
                Event *ev = slot[i];
                if (ev->_when != scan) {
                    // A record can only sit in this slot early if its
                    // cycle is a whole wheel turn (or more) away.
                    DESC_DCHECK((ev->_when & kWheelMask)
                                    == (scan & kWheelMask),
                                "record in wrong wheel slot: when=",
                                ev->_when, " scan=", scan);
                    slot[keep++] = ev;
                    continue;
                }
                DESC_DCHECK(scan >= _now,
                            "event time moved backwards: ", scan, " < ",
                            _now);
                _now = scan;
                ev->_scheduled = false;
                _live--;
                ev->process();
                executed++;
            }
            _wheel_recs -= slot.size() - keep;
            slot.resize(keep);
            scan++;
        }
        return executed;
    }

    /**
     * Total record capacity across the far heap's backing vector and
     * all wheel slots. Flat in steady state: the queue's
     * zero-allocation invariant.
     */
    std::size_t
    recordCapacity() const
    {
        std::size_t cap = _store.capacity();
        for (const auto &slot : _wheel)
            cap += slot.capacity();
        return cap;
    }

  private:
    /** Wheel geometry: near horizon, in cycles. Power of two. */
    static constexpr unsigned kWheelBits = 8;
    static constexpr Cycle kWheelSpan = Cycle{1} << kWheelBits;
    static constexpr Cycle kWheelMask = kWheelSpan - 1;

    struct Rec
    {
        Cycle when;
        std::uint64_t seq;
        Event *ev;

        bool
        operator>(const Rec &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    /** Min-heap on (when, seq); _store is the reused backing vector. */
    class Heap : public std::priority_queue<Rec, std::vector<Rec>,
                                            std::greater<>>
    {
      public:
        std::vector<Rec> &container() { return c; }
    };

    Heap _heap;
    std::vector<Rec> &_store = _heap.container();
    /** Wheel slots hold bare events: when is read off the event. */
    std::array<std::vector<Event *>, kWheelSpan> _wheel;
    std::size_t _wheel_recs = 0; //!< records in slots
    Cycle _now = 0;
    std::uint64_t _next_seq = 0;
    std::size_t _live = 0;
};

/**
 * Pinned storage with a LIFO free list for objects a component hands
 * out by address: events whose number varies at runtime, and the
 * cache's MSHR entries. acquire() reuses the most recently released
 * object, or builds a new one from @p args (the owner's back-pointer)
 * when none is free, so the pool grows only to the high-water mark of
 * objects in use. Released objects keep their fields, including
 * container capacity, for the next acquire().
 */
template <class T>
class Pool
{
  public:
    template <class... Args>
    T &
    acquire(Args &&...args)
    {
        if (_free.empty())
            return _store.emplace_back(std::forward<Args>(args)...);
        T *obj = _free.back();
        _free.pop_back();
        return *obj;
    }

    void
    release(T &obj)
    {
        _free.push_back(&obj);
        DESC_DCHECK(_free.size() <= _store.size(),
                    "pool free list (", _free.size(),
                    ") exceeds pool size (", _store.size(), ")");
    }

    /** Objects built so far: the high-water mark of objects in use. */
    std::size_t size() const { return _store.size(); }

  private:
    std::deque<T> _store; //!< never erases, so addresses stay pinned
    std::vector<T *> _free;
};

} // namespace desc::sim

#endif // DESC_SIM_EVENTQ_HH
