#include "cpu/inorder.hh"

#include <algorithm>
#include <utility>

#include "common/contract.hh"
#include "common/prof.hh"

namespace desc::cpu {

InOrderCore::InOrderCore(
    sim::EventQueue &eq, cache::MemHierarchy &mem, unsigned core_id,
    std::vector<std::unique_ptr<InstructionStream>> threads,
    std::uint64_t inst_budget)
    : _eq(eq), _mem(mem), _core_id(core_id), _inst_budget(inst_budget)
{
    DESC_ASSERT(!threads.empty(), "core needs at least one thread");
    _dispatch_ev.core = this;
    for (auto &s : threads) {
        Thread t;
        t.stream = std::move(s);
        t.fetch_countdown = 0;
        _threads.push_back(std::move(t));
        _thread_events.emplace_back();
        _thread_events.back().core = this;
        _thread_events.back().tid = unsigned(_thread_events.size() - 1);
    }
    _ready.slots.resize(_threads.size());
}

void
InOrderCore::start()
{
    for (unsigned tid = 0; tid < _threads.size(); tid++)
        _ready.push_back(tid);
    scheduleDispatch(_eq.now());
}

void
InOrderCore::scheduleDispatch(Cycle when)
{
    if (_dispatch_ev.scheduled())
        return;
    _eq.schedule(_dispatch_ev, when);
}

void
InOrderCore::endBurst()
{
    const BurstEnd end = std::exchange(_burst_end, BurstEnd::None);
    if (end == BurstEnd::None)
        return;
    const unsigned tid = _burst_tid;
    if (end == BurstEnd::Wake) {
        _ready.push_back(tid);
        return;
    }
    auto lat = _mem.access(_core_id, _burst_op.addr, _burst_op.is_write,
                           _burst_op.store_value, false, memDoneCb(tid));
    if (lat)
        _eq.scheduleIn(_thread_events[tid], *lat);
    else
        _threads[tid].blocked = true;
}

void
InOrderCore::wake(unsigned tid)
{
    DESC_PROF_SCOPE(CpuInorder);
    _ready.push_back(tid);
    scheduleDispatch(_eq.now());
}

void
InOrderCore::onMemDone(unsigned tid)
{
    Thread &t = _threads[tid];
    DESC_ASSERT(t.blocked, "completion for a runnable thread");
    t.blocked = false;
    _ready.push_back(tid);
    scheduleDispatch(_eq.now());
}

void
InOrderCore::dispatch()
{
    DESC_PROF_SCOPE(CpuInorder);
    endBurst();
    if (_ready.empty())
        return; // all contexts blocked; a completion will wake us

    const unsigned tid = _ready.pop_front();
    Thread &t = _threads[tid];

    // Instruction fetch: one I-cache access per fetched line.
    if (t.fetch_countdown == 0) {
        t.fetch_countdown = kFetchInterval;
        auto lat = _mem.access(_core_id, t.stream->fetchAddr(), false, 0,
                               true, memDoneCb(tid));
        if (!lat) {
            t.blocked = true;
            // The issue slot frees immediately for other contexts.
            scheduleDispatch(_eq.now());
            return;
        }
        // I-fetch hits overlap with execution: no extra cycles.
    }

    // Execute up to the next memory operation (single issue: one
    // instruction per cycle).
    MemOp op;
    unsigned gap = t.stream->nextGap(op);
    std::uint64_t remaining = _inst_budget - t.retired;
    bool has_mem = true;
    std::uint64_t insts = std::uint64_t(gap) + 1;
    if (insts >= remaining) {
        insts = remaining;
        has_mem = gap + 1 <= remaining; // mem op is the last instruction
    }

    t.retired += insts;
    _stats.instructions.inc(insts);
    t.fetch_countdown = t.fetch_countdown > insts
        ? unsigned(t.fetch_countdown - insts)
        : 0;
    Cycle end = _eq.now() + std::max<Cycle>(1, insts);

    if (t.retired >= _inst_budget) {
        t.finished = true;
        _done_threads++;
        // Let the memory op of the final instruction drain untimed.
        scheduleDispatch(end);
        return;
    }

    // The next dispatch, at the burst's last cycle, ends the burst
    // first; nothing else may fire the dispatch event before then.
    DESC_ASSERT(!_dispatch_ev.scheduled(),
                "dispatch scheduled before the burst end");
    _burst_tid = tid;
    if (has_mem) {
        _stats.mem_ops.inc();
        _burst_end = BurstEnd::Mem;
        _burst_op = op;
    } else {
        _burst_end = BurstEnd::Wake;
    }
    _eq.schedule(_dispatch_ev, end);
}

} // namespace desc::cpu
