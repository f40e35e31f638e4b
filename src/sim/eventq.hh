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
 * the queue stores plain {seq, Event*} records. Near events — within
 * kWheelSpan cycles of now, the overwhelmingly common case — append
 * to a timing-wheel slot in O(1); far events go to a binary heap on
 * (when, seq) and migrate into the wheel as the horizon approaches.
 * All backing vectors reuse their capacity. Cancellation is lazy: a
 * descheduled or rescheduled event leaves its stale record behind,
 * and the record is dropped unexecuted when it surfaces (each record
 * carries the sequence number it was issued with; only the record
 * matching the event's live sequence fires).
 *
 * Same-cycle FIFO ordering is an invariant of the structure: within
 * a wheel slot, records are appended in schedule-call (= sequence)
 * order — direct appends happen in call order, and heap records
 * migrate in (when, seq) order before any of that cycle's direct
 * same-cycle appends can occur.
 *
 * One-shot callbacks are still supported for convenience (tests,
 * cold paths): schedule(when, cb) wraps the callback in a pooled
 * event drawn from a free list, so repeated one-shot scheduling
 * allocates pool slabs only while the high-water mark grows. The
 * pool instruments its slab allocations (poolAllocations()) and the
 * heap its capacity (recordCapacity()) so tests can assert that a
 * steady-state workload performs zero heap allocations in the
 * scheduling path.
 */

#ifndef DESC_SIM_EVENTQ_HH
#define DESC_SIM_EVENTQ_HH

#include <array>
#include <functional>
#include <memory>
#include <queue>
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
 * scheduled on at most one cycle at a time, and is automatically
 * descheduled just before process() runs, so process() may
 * immediately reschedule the same object (the recurring-event
 * idiom). Events are pinned: their address is registered with the
 * queue, so they are deliberately neither copyable nor movable.
 */
class Event
{
  public:
    Event() = default;
    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;
    virtual ~Event() = default;

    /** True while the event sits in a queue awaiting execution. */
    bool scheduled() const { return _live_seq != kIdle; }

    /** Cycle the event will fire at; meaningful only if scheduled(). */
    Cycle when() const { return _when; }

  protected:
    /** The event's action; runs with the queue's now() == when(). */
    virtual void process() = 0;

  private:
    friend class EventQueue;

    static constexpr std::uint64_t kIdle = ~std::uint64_t{0};

    Cycle _when = 0;
    std::uint64_t _live_seq = kIdle;
};

class EventQueue
{
  public:
    using Callback = std::function<void()>;

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
        ev._live_seq = _next_seq;
        if (when - _now < kWheelSpan) {
            _wheel[when & kWheelMask].push_back(SlotRec{_next_seq, &ev});
            _wheel_recs++;
        } else {
            _heap.push(Rec{when, _next_seq, &ev});
        }
        _next_seq++;
        _live++;
    }

    /** Schedule @p ev @p delta cycles from now. */
    void scheduleIn(Event &ev, Cycle delta) { schedule(ev, _now + delta); }

    /**
     * Remove @p ev from the queue without running it. A no-op if the
     * event is not scheduled. The stale record is dropped lazily.
     */
    void
    deschedule(Event &ev)
    {
        if (!ev.scheduled())
            return;
        ev._live_seq = Event::kIdle;
        _live--;
    }

    /**
     * Move @p ev to cycle @p when, scheduled or not. Ordering-wise
     * this is deschedule() + schedule(): the event re-enters the
     * same-cycle FIFO order as if freshly scheduled.
     */
    void
    reschedule(Event &ev, Cycle when)
    {
        deschedule(ev);
        schedule(ev, when);
    }

    /** Schedule one-shot @p cb at absolute cycle @p when (pooled). */
    void
    schedule(Cycle when, Callback cb)
    {
        CallbackEvent *ev = acquire();
        ev->cb = std::move(cb);
        schedule(*ev, when);
    }

    /** Schedule one-shot @p cb @p delta cycles from now. */
    void
    scheduleIn(Cycle delta, Callback cb)
    {
        schedule(_now + delta, std::move(cb));
    }

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
        // advances when an event actually executes, so draining stale
        // records never moves simulated time.
        Cycle scan = _now;
        while (_live != 0) {
            // Pull far records that have entered the wheel's horizon.
            // Popping in (when, seq) order keeps per-slot appends in
            // seq order; stale records surfacing at the top are
            // dropped here, so afterwards the top (if any) is live.
            while (!_heap.empty()) {
                const Rec &top = _heap.top();
                if (top.ev->_live_seq != top.seq) {
                    _heap.pop(); // stale (re|de)scheduled record
                    continue;
                }
                if (top.when - scan >= kWheelSpan)
                    break;
                _wheel[top.when & kWheelMask].push_back(
                    SlotRec{top.seq, top.ev});
                _wheel_recs++;
                _heap.pop();
            }
            if (_wheel_recs == 0) {
                if (_heap.empty())
                    break;
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
            // size (push_back can also reallocate the slot). A live
            // entry whose when is a whole wheel turn away (possible
            // when a later run() revisits cycles an earlier limited
            // run() scanned past) is kept for that future visit.
            auto &slot = _wheel[scan & kWheelMask];
            std::size_t keep = 0;
            for (std::size_t i = 0; i < slot.size(); i++) {
                SlotRec r = slot[i];
                if (r.ev->_live_seq != r.seq)
                    continue; // stale
                if (r.ev->_when != scan) {
                    // A live record can only sit in this slot early if
                    // its cycle is a whole wheel turn (or more) away.
                    DESC_DCHECK((r.ev->_when & kWheelMask)
                                    == (scan & kWheelMask),
                                "live record in wrong wheel slot: when=",
                                r.ev->_when, " scan=", scan);
                    slot[keep++] = r;
                    continue;
                }
                DESC_DCHECK(scan >= _now,
                            "event time moved backwards: ", scan, " < ",
                            _now);
                _now = scan;
                r.ev->_live_seq = Event::kIdle;
                _live--;
                r.ev->process();
                executed++;
            }
            _wheel_recs -= slot.size() - keep;
            slot.resize(keep);
            scan++;
        }
        return executed;
    }

    /**
     * One-shot pool slabs allocated so far. Stays flat once the pool
     * reaches its high-water mark — the allocation-free steady-state
     * invariant the kernel tests assert.
     */
    std::uint64_t poolAllocations() const { return _pool_allocs; }

    /**
     * Total record capacity across the far heap's backing vector and
     * all wheel slots. Flat in steady state — together with
     * poolAllocations() this is the zero-allocation invariant.
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

    /** Wheel-slot record; when is recovered from the event itself. */
    struct SlotRec
    {
        std::uint64_t seq;
        Event *ev;
    };

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

    /** Pooled wrapper that runs a one-shot callback and frees itself. */
    struct CallbackEvent final : Event
    {
        explicit CallbackEvent(EventQueue *q_) : q(q_) {}

        void
        process() override
        {
            Callback fn = std::move(cb);
            cb = nullptr;
            q->release(this);
            fn();
        }

        EventQueue *q;
        Callback cb;
    };

    CallbackEvent *
    acquire()
    {
        if (_pool_free.empty()) {
            _pool.push_back(std::make_unique<CallbackEvent>(this));
            _pool_allocs++;
            return _pool.back().get();
        }
        CallbackEvent *ev = _pool_free.back();
        _pool_free.pop_back();
        return ev;
    }

    void
    release(CallbackEvent *ev)
    {
        _pool_free.push_back(ev);
        // Pool high-water contract: every free entry must come from a
        // pooled slab, so the free list can never outgrow the pool.
        DESC_DCHECK(_pool_free.size() <= _pool.size(),
                    "callback pool free list (", _pool_free.size(),
                    ") exceeds pool size (", _pool.size(), ")");
    }

    /** Min-heap on (when, seq); _store is the reused backing vector. */
    class Heap : public std::priority_queue<Rec, std::vector<Rec>,
                                            std::greater<>>
    {
      public:
        std::vector<Rec> &container() { return c; }
    };

    Heap _heap;
    std::vector<Rec> &_store = _heap.container();
    std::array<std::vector<SlotRec>, kWheelSpan> _wheel;
    std::size_t _wheel_recs = 0; //!< records (live + stale) in slots
    Cycle _now = 0;
    std::uint64_t _next_seq = 0;
    std::size_t _live = 0;

    std::vector<std::unique_ptr<CallbackEvent>> _pool;
    std::vector<CallbackEvent *> _pool_free;
    std::uint64_t _pool_allocs = 0;
};

} // namespace desc::sim

#endif // DESC_SIM_EVENTQ_HH
