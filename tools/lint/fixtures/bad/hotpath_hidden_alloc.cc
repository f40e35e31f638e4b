// Fixture: per-call allocations in a hot-path file — two
// function-local heap owners and a naked new[]/delete[] pair.
// Fixture files count as hot-path files.
// Expected finding: hot-path-alloc (four times, nothing else).

#include <functional>
#include <vector>

namespace fixture {

int
hiddenLocalContainer(int n)
{
    std::vector<int> scratch(std::size_t(n), 0); // per-call heap storage
    return int(scratch.size());
}

int
hiddenFunctionWrapper(int x)
{
    // Capturing lambda converted to std::function: type-erased heap
    // allocation on every call.
    std::function<int(int)> f = [x](int y) { return x + y; };
    return f(1);
}

int *
nakedNew()
{
    return new int[4];
}

void
nakedDelete(int *p)
{
    delete[] p;
}

} // namespace fixture
