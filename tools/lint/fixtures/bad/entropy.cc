// desc-lint fixture: deliberate violations.
// Expected findings: determinism (rand/srand/time), test-include.
// Never compiled; exercised only by desc_lint.py --self-test.

#include <cstdlib>
#include <ctime>

#include "tests/common/helpers.hh"

// A digit separator is not a character literal: the code after it
// must stay visible to the checks.
constexpr unsigned kSides = 1'000'000;

unsigned
entropy()
{
    srand(time(nullptr));
    return std::rand() % kSides;
}
