// Fixture: implicit narrowing of Cycle-typed expressions into
// smaller integer types — initialization, assignment, call argument,
// and return. Must fail to compile with the src/ flags
// (-Werror=conversion): the lint.narrowing_fixture ctest case.

#include "common/types.hh"

namespace fixture {

unsigned
truncInit(desc::Cycle c)
{
    unsigned low = c; // 64 -> 32, silently
    return low;
}

void
truncAssign(desc::Cycle c)
{
    unsigned low = 0;
    low = c + 1; // sugar lost in arithmetic, still a Cycle value
    (void)low;
}

void sink(unsigned v);

void
truncCall(desc::Cycle c)
{
    sink(c); // parameter is only 32 bits wide
}

int
truncReturn(desc::Cycle c)
{
    return c / 2; // result type truncates
}

} // namespace fixture
