/**
 * @file
 * SWAR (SIMD-within-a-register) helpers over packed fixed-width
 * chunks, shared by the transfer kernels. A 64-bit word holds 64/B
 * chunks of B bits each, B in {1, 2, 4, 8}; the chunk width is a
 * template parameter so every mask folds to a compile-time constant
 * and each helper compiles to a handful of straight-line shifts. The
 * scalar oracles (tests/oracle) remain the semantic definition; the
 * equivalence suites pin the kernels against them chunk by chunk.
 *
 * popcount64 is the one population count in src/: the build targets
 * baseline x86-64 without POPCNT, where std::popcount is a libgcc
 * call, so every site uses this inline tree sum instead.
 */

#ifndef DESC_COMMON_SWAR_HH
#define DESC_COMMON_SWAR_HH

#include <cstdint>

namespace desc::swar {

/** True if the SWAR lanes support this chunk width. */
constexpr bool
supportedChunk(unsigned b)
{
    return b == 1 || b == 2 || b == 4 || b == 8;
}

/** Word with the least-significant bit of every w-bit lane set. */
constexpr std::uint64_t
laneLsbMask(unsigned w)
{
    std::uint64_t m = 0;
    for (unsigned pos = 0; pos < 64; pos += w)
        m |= std::uint64_t{1} << pos;
    return m;
}

/** Word with the low @p low bits of every w-bit lane set. */
constexpr std::uint64_t
laneLowMask(unsigned w, unsigned low)
{
    return laneLsbMask(w) * ((std::uint64_t{1} << low) - 1);
}

/**
 * Collapse every B-bit chunk to its least-significant bit: the result
 * has chunk i's LSB set iff chunk i of @p x is non-zero (all other
 * bits are garbage until masked). Shifting by less than B never moves
 * a bit below its own chunk's LSB, so neighbors cannot contaminate
 * the collapsed bit.
 */
template <unsigned B>
constexpr std::uint64_t
foldNonzero(std::uint64_t x)
{
    for (unsigned s = B / 2; s >= 1; s /= 2)
        x |= x >> s;
    return x;
}

/**
 * One marker bit (at the chunk's LSB position) per non-zero chunk;
 * iterate with countr_zero / B to visit each such chunk.
 */
template <unsigned B>
inline std::uint64_t
nonzeroChunkMarkers(std::uint64_t x)
{
    return foldNonzero<B>(x) & laneLsbMask(B);
}

/**
 * Per-lane population count over W-bit lanes, W in {4, ..., 64}:
 * lane i of the result holds the number of set bits in lane i of
 * @p x (the classic tree sum, stopped at width W).
 */
template <unsigned W>
constexpr std::uint64_t
lanePopcount(std::uint64_t x)
{
    constexpr std::uint64_t m1 = laneLsbMask(2), m2 = laneLowMask(4, 2),
                            m4 = laneLowMask(8, 4), m8 = laneLowMask(16, 8),
                            m16 = laneLowMask(32, 16);
    x -= (x >> 1) & m1;
    x = (x & m2) + ((x >> 2) & m2);
    if constexpr (W >= 8)
        x = (x + (x >> 4)) & m4;
    if constexpr (W == 64)
        return (x * laneLsbMask(8)) >> 56; // sum the byte lanes
    if constexpr (W >= 16)
        x = (x + (x >> 8)) & m8;
    if constexpr (W >= 32)
        x = (x + (x >> 16)) & m16;
    return x;
}

/** Number of set bits in @p x. */
constexpr unsigned
popcount64(std::uint64_t x)
{
    return unsigned(lanePopcount<64>(x));
}

/** Number of non-zero B-bit chunks in @p x. */
template <unsigned B>
inline unsigned
nonzeroChunks(std::uint64_t x)
{
    return popcount64(nonzeroChunkMarkers<B>(x));
}

/**
 * Per-lane maximum of @p a and @p b over W-bit lanes. Requires every
 * lane value < 2^(W-1) so the borrow trick has a spare bit.
 */
template <unsigned W>
inline std::uint64_t
laneMax(std::uint64_t a, std::uint64_t b)
{
    constexpr std::uint64_t hibit = laneLsbMask(W) << (W - 1);
    constexpr std::uint64_t lane_ones =
        W == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << W) - 1;
    // Per lane: hibit survives the subtraction iff a >= b. One flag
    // bit per lane times the all-ones lane value stays confined to
    // its lane: a full select mask where a >= b.
    const std::uint64_t ge = ((a | hibit) - b) & hibit;
    const std::uint64_t sel = (ge >> (W - 1)) * lane_ones;
    return b ^ ((a ^ b) & sel);
}

/**
 * Fold W-bit lanes (each value < 2^(W-1)) pairwise until one 64-bit
 * lane holds the maximum.
 */
template <unsigned W>
inline std::uint64_t
foldMaxLanes(std::uint64_t m)
{
    if constexpr (W >= 64) {
        return m;
    } else {
        constexpr std::uint64_t lo = laneLowMask(2 * W, W);
        return foldMaxLanes<2 * W>(laneMax<2 * W>(m & lo, (m >> W) & lo));
    }
}

/** Maximum chunk value across all B-bit chunks of @p x. */
template <unsigned B>
inline std::uint64_t
maxChunk(std::uint64_t x)
{
    if constexpr (B == 1) {
        return x != 0 ? 1 : 0;
    } else {
        // Widen to 2B-bit lanes (values < 2^B keep the spare bit the
        // compare trick needs), then fold lanes pairwise down to one.
        constexpr std::uint64_t half = laneLowMask(2 * B, B);
        return foldMaxLanes<2 * B>(laneMax<2 * B>(x & half, (x >> B) & half));
    }
}

/**
 * Per-chunk "v < s" over B-bit chunks: the result has chunk i's LSB
 * set iff chunk i of @p v is strictly less than chunk i of @p s (all
 * other bits zero). Compares each half of the chunks in widened
 * 2B-bit lanes so the borrow trick has its spare bit.
 */
template <unsigned B>
inline std::uint64_t
lessPerChunk(std::uint64_t v, std::uint64_t s)
{
    if constexpr (B == 1) {
        return ~v & s;
    } else {
        constexpr unsigned w = 2 * B;
        constexpr std::uint64_t half = laneLowMask(w, B);
        constexpr std::uint64_t hb = laneLsbMask(w) << (w - 1);
        const auto lt = [](std::uint64_t a, std::uint64_t c) {
            // hb survives the subtraction iff a >= c; invert for <.
            return ((((a | hb) - c) & hb) ^ hb) >> (w - 1);
        };
        const std::uint64_t lo = lt(v & half, s & half);
        const std::uint64_t hi = lt((v >> B) & half, (s >> B) & half);
        return lo | (hi << B);
    }
}

} // namespace desc::swar

#endif // DESC_COMMON_SWAR_HH
