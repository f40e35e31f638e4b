/**
 * @file
 * Niagara-like in-order multithreaded core (Table 1): single-issue,
 * four hardware thread contexts, switch-on-miss.
 *
 * The core interleaves runnable threads; a thread that misses in the
 * L1 blocks until the hierarchy's completion callback, while the
 * other contexts keep the pipeline fed — which is what makes the
 * multicore tolerate DESC's longer transfer windows (Figure 20) far
 * better than the out-of-order core does (Figure 30).
 */

#ifndef DESC_CPU_INORDER_HH
#define DESC_CPU_INORDER_HH

#include <deque>
#include <memory>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/contract.hh"
#include "common/stats.hh"
#include "cpu/stream.hh"
#include "sim/eventq.hh"

namespace desc::cpu {

struct CoreStats
{
    Counter instructions;
    Counter mem_ops;
    Counter stall_cycles;
};

class InOrderCore
{
  public:
    /**
     * @param inst_budget retired instructions per thread before the
     *        thread (and eventually the core) reports done
     */
    InOrderCore(sim::EventQueue &eq, cache::MemHierarchy &mem,
                unsigned core_id,
                std::vector<std::unique_ptr<InstructionStream>> threads,
                std::uint64_t inst_budget);

    /** Kick off execution (schedules the first dispatch). */
    void start();

    bool done() const { return _done_threads == _threads.size(); }

    const CoreStats &stats() const { return _stats; }

  private:
    struct Thread
    {
        std::unique_ptr<InstructionStream> stream;
        std::uint64_t retired = 0;
        bool blocked = false;
        bool finished = false;
        std::uint64_t fetch_countdown = 0;
    };

    /** The core's single reusable issue-slot event. */
    struct DispatchEvent final : sim::Event
    {
        void process() override { core->dispatch(); }
        InOrderCore *core = nullptr;
    };

    /** Wake-up of a thread whose memory op hit in the L1. A thread
     *  waits on at most one, so one pinned event per thread suffices. */
    struct ThreadEvent final : sim::Event
    {
        void process() override { core->wake(tid); }

        InOrderCore *core = nullptr;
        unsigned tid = 0;
    };

    /**
     * What ends the last dispatched burst: issuing its memory op, or
     * returning its thread to the ready queue. A burst ends in the
     * cycle the next dispatch event fires, so that event finishes it
     * before it dispatches.
     */
    enum class BurstEnd : std::uint8_t { None, Mem, Wake };

    void dispatch();
    void endBurst();
    void scheduleDispatch(Cycle when);
    void wake(unsigned tid);
    void onMemDone(unsigned tid);

    /** Completion callback waking thread @p tid. */
    cache::DoneCb
    memDoneCb(unsigned tid)
    {
        return {[](void *c, unsigned t) {
                    static_cast<InOrderCore *>(c)->onMemDone(t);
                },
                this, tid};
    }

    sim::EventQueue &_eq;
    cache::MemHierarchy &_mem;
    unsigned _core_id;
    std::uint64_t _inst_budget;

    /** FIFO of runnable thread ids. A thread is queued at most once,
     *  so a ring of one slot per thread never grows. */
    struct ReadyRing
    {
        std::vector<unsigned> slots;
        unsigned head = 0;
        unsigned size = 0;

        bool empty() const { return size == 0; }

        void
        push_back(unsigned tid)
        {
            DESC_ASSERT(size < slots.size(), "thread ", tid, " queued twice");
            const unsigned at = head + size++;
            slots[at < slots.size() ? at : at - slots.size()] = tid;
        }

        unsigned
        pop_front()
        {
            const unsigned tid = slots[head];
            head = head + 1 == slots.size() ? 0 : head + 1;
            size--;
            return tid;
        }
    };

    std::vector<Thread> _threads;
    ReadyRing _ready;
    unsigned _done_threads = 0;

    DispatchEvent _dispatch_ev;
    std::deque<ThreadEvent> _thread_events; //!< indexed by tid (pinned)

    /** The pending burst end, run by the next dispatch event. */
    BurstEnd _burst_end = BurstEnd::None;
    unsigned _burst_tid = 0;
    MemOp _burst_op{};

    CoreStats _stats;

    /** Instructions covered by one I-fetch (one line per 8 insts). */
    static constexpr unsigned kFetchInterval = 8;
};

} // namespace desc::cpu

#endif // DESC_CPU_INORDER_HH
