// Fixture: runtime-sized events drawn from sim::Pool, next to vectors
// that are not event free lists. Expected findings: none.

#include <vector>

#include "sim/eventq.hh"

namespace fixture {

class Controller
{
  public:
    /** Borrowing a list of events is not keeping one. */
    static unsigned
    live(const std::vector<desc::sim::Event *> &evs)
    {
        unsigned n = 0;
        for (const desc::sim::Event *ev : evs)
            n += ev->scheduled() ? 1 : 0;
        return n;
    }

  private:
    struct DoneEvent final : desc::sim::Event
    {
        explicit DoneEvent(Controller *c) : owner(c) {}
        void process() override { owner->_done.release(*this); }
        Controller *const owner;
    };

    desc::sim::Pool<DoneEvent> _done;
    std::vector<unsigned> _waiting_ids;
    std::vector<EventCount> _counts;
};

} // namespace fixture
