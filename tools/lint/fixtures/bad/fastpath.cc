// desc-lint fixture: deliberate violation.
// Expected findings: hot-path-alloc (naked malloc/free in a file the
// hot-path allocation ban covers, like the link endpoints).
// Never compiled; exercised only by desc_lint.py --self-test.

#include <cstdlib>

struct Plan
{
    unsigned *strobes;
    unsigned wires;
};

inline void
growPlan(Plan &plan, unsigned wires)
{
    // A per-transfer buffer must come from storage owned by the link,
    // not from the allocator on every block.
    plan.strobes = static_cast<unsigned *>(
        std::malloc(wires * sizeof(unsigned)));
    plan.wires = wires;
}

inline void
dropPlan(Plan &plan)
{
    std::free(plan.strobes);
    plan.strobes = nullptr;
}
