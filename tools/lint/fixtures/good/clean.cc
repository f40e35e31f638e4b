// Fixture: the sanctioned patterns — owned pinned events, explicit
// casts where truncation is intended, a one-time allocation carrying
// a lint:allow marker. Must produce zero desc-lint findings and
// compile with the src/ flags (-Werror=conversion).

#include <functional>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "sim/eventq.hh"

namespace fixture {

using desc::Cycle;

/** Owned, pinned event: the sanctioned lifetime pattern. */
class Ticker
{
  public:
    explicit Ticker(desc::sim::EventQueue &q) : _q(q) {}

    void start(Cycle when) { _q.schedule(_tick, when); }

    /** Explicit cast records that the truncation is intended. */
    unsigned low() const { return unsigned(_last & 0xffu); }

    /** Wide-to-wide arithmetic stays wide: no finding. */
    Cycle window(Cycle a, Cycle b) const { return b - a; }

  private:
    struct TickEvent : desc::sim::Event
    {
        explicit TickEvent(Ticker &t) : owner(t) {}
        void process() override { owner._last = owner._q.now(); }
        Ticker &owner;
    };

    desc::sim::EventQueue &_q;
    TickEvent _tick{*this};
    Cycle _last = 0;
};

/** Move-construction steals existing storage: no allocation. */
inline void
runMoved(std::function<void()> cb)
{
    std::function<void()> local = std::move(cb);
    local();
}

/** A deliberate cold-path allocation, waved through with a reason. */
inline int
scratchSum(int n)
{
    // lint:allow(hot-path-alloc) set-up table, not per-transfer work
    std::vector<int> v(std::size_t(n), 1);
    int s = 0;
    for (int x : v)
        s += x;
    return s;
}

} // namespace fixture
