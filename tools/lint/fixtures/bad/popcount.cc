// Fixture: population counts that compile to libgcc calls on a build
// without POPCNT. Expected finding: popcount.

#include <bit>
#include <cstdint>

namespace fixture {

unsigned
setBits(std::uint64_t x)
{
    return unsigned(std::popcount(x));
}

unsigned
setBitsBuiltin(std::uint64_t x)
{
    return unsigned(__builtin_popcountll(x));
}

} // namespace fixture
