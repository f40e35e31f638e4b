/**
 * @file
 * Four-issue out-of-order core model (Table 1: 128-entry ROB).
 *
 * Latency-tolerance is modeled with two limits: a load miss occupies
 * an MSHR-like miss slot (bounded memory-level parallelism), and the
 * ROB allows execution to run at most 128 instructions past the
 * oldest outstanding load. Stores retire through a store buffer and
 * never stall the window. This is the latency-sensitive design whose
 * DESC slowdown Figure 30 reports (~6% vs ~2% for the SMT multicore).
 */

#ifndef DESC_CPU_OOO_HH
#define DESC_CPU_OOO_HH

#include <deque>
#include <memory>

#include "cache/hierarchy.hh"
#include "common/stats.hh"
#include "common/rng.hh"
#include "cpu/stream.hh"
#include "sim/eventq.hh"

namespace desc::cpu {

class OooCore
{
  public:
    OooCore(sim::EventQueue &eq, cache::MemHierarchy &mem,
            unsigned core_id, std::unique_ptr<InstructionStream> stream,
            std::uint64_t inst_budget);

    void start();
    bool done() const { return _finished; }

    std::uint64_t instructions() const { return _retired; }

  private:
    struct DispatchEvent final : sim::Event
    {
        void process() override { core->dispatch(); }
        OooCore *core = nullptr;
    };

    /**
     * End of an execution burst whose last instruction is a memory
     * op. Several can be in flight at once (the window keeps sliding
     * past outstanding loads), so they come from a per-core pool.
     */
    struct ExecEvent final : sim::Event
    {
        explicit ExecEvent(OooCore *c) : core(c) {}
        void process() override { core->execEvent(*this); }
        OooCore *const core;
        MemOp op{};
        std::uint64_t inst_no = 0;
    };

    void dispatch();
    void scheduleDispatch(Cycle when);
    void execEvent(ExecEvent &ev);
    void onLoadDone();

    sim::EventQueue &_eq;
    cache::MemHierarchy &_mem;
    unsigned _core_id;
    std::unique_ptr<InstructionStream> _stream;
    std::uint64_t _inst_budget;

    std::uint64_t _retired = 0;
    std::deque<std::uint64_t> _outstanding; //!< inst numbers of loads
    bool _finished = false;
    std::uint64_t _fetch_countdown = 0;
    Rng _rng;

    DispatchEvent _dispatch_ev;
    sim::Pool<ExecEvent> _exec_events;

    static constexpr unsigned kIssueWidth = 4;
    static constexpr unsigned kRob = 128;
    static constexpr unsigned kMlp = 8;
    static constexpr unsigned kFetchInterval = 8;

    /** Fraction of loads whose address depends on an in-flight load
     *  (pointer chains); these serialize and expose the L2 hit
     *  latency the ROB would otherwise hide. */
    static constexpr double kDependentLoadFrac = 0.45;
};

} // namespace desc::cpu

#endif // DESC_CPU_OOO_HH
