// Fixture: Event-lifetime contract violations — a subclass that
// re-enables copying, a stack-constructed event, by-value parameter
// and return. Expected finding: event-lifetime (four times, nothing
// else).

#include "sim/eventq.hh"

namespace fixture {

struct CountEvent : desc::sim::Event
{
    CountEvent() = default;
    CountEvent(const CountEvent &) : CountEvent() {} // re-enables copy
    void process() override { fired++; }
    int fired = 0;
};

int
stackEvent()
{
    CountEvent ev; // dies at scope exit, queue slot would dangle
    return ev.fired;
}

void takeByValue(CountEvent ev); // slices the pinned address

CountEvent makeByValue(); // returned storage is not the queue's

} // namespace fixture
