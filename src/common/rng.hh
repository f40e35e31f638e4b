/**
 * @file
 * Deterministic pseudo-random number generation (xoshiro256**).
 *
 * Every experiment seeds its own Rng from (application, experiment)
 * identifiers so reruns reproduce bit-identical statistics.
 */

#ifndef DESC_COMMON_RNG_HH
#define DESC_COMMON_RNG_HH

#include <cstdint>

namespace desc {

class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        // splitmix64 expansion of the seed into the xoshiro state.
        std::uint64_t x = seed;
        for (auto &s : _state) {
            x += 0x9e3779b97f4a7c15ULL;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            s = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        auto rotl = [](std::uint64_t v, int k) {
            return (v << k) | (v >> (64 - k));
        };
        std::uint64_t result = rotl(_state[1] * 5, 7) * 9;
        std::uint64_t t = _state[1] << 17;
        _state[2] ^= _state[0];
        _state[3] ^= _state[1];
        _state[1] ^= _state[2];
        _state[0] ^= _state[3];
        _state[2] ^= t;
        _state[3] = rotl(_state[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Multiply-shift rejection-free mapping; bias is negligible for
        // the bounds used in this model (< 2^40).
        unsigned __int128 m = (unsigned __int128)next() * bound;
        return (std::uint64_t)(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi. */
    std::uint64_t
    between(std::uint64_t lo, std::uint64_t hi)
    {
        // hi - lo + 1 wraps to 0 when [lo, hi] covers the whole
        // 64-bit span, which would violate below()'s bound > 0
        // precondition; every raw value is in range in that case.
        std::uint64_t span = hi - lo;
        if (span == ~std::uint64_t{0})
            return next();
        return lo + below(span + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return double(next() >> 11) * (1.0 / 9007199254740992.0);
    }

    /** Bernoulli trial with probability @p p. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

  private:
    std::uint64_t _state[4];
};

} // namespace desc

#endif // DESC_COMMON_RNG_HH
