// Fixture: hand-rolled free lists of events beside their pinned
// storage. Expected finding: event-pool (twice).

#include <deque>
#include <vector>

#include "sim/eventq.hh"

namespace fixture {

class Controller
{
  private:
    struct DoneEvent final : desc::sim::Event
    {
        void process() override {}
    };

    std::deque<DoneEvent> _done_events;
    std::vector<DoneEvent *> _done_free;
    std::vector<desc::sim::Event *> _parked{};
};

} // namespace fixture
