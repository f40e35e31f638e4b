/**
 * @file
 * Configuration shared by the DESC transmitter, receiver, and the
 * behavioral block-level model.
 */

#ifndef DESC_CORE_CONFIG_HH
#define DESC_CORE_CONFIG_HH

#include "common/contract.hh"
#include "common/types.hh"
#include "common/log.hh"

namespace desc::core {

/** Value-skipping flavor (Section 3.3 of the paper). */
enum class SkipMode { None, Zero, LastValue, Adaptive };

const char *skipModeName(SkipMode mode);

/** Parameters of one DESC link (one direction of a bank port). */
struct DescConfig
{
    /** Physical data wires (paper's best design point: 128). */
    unsigned bus_wires = 128;

    /** Bits per chunk (paper's best design point: 4). */
    unsigned chunk_bits = 4;

    /** Bits per transferred block (512 throughout the paper). */
    unsigned block_bits = kBlockBits;

    SkipMode skip = SkipMode::Zero;

    /** Chunks per block. */
    unsigned
    numChunks() const
    {
        return block_bits / chunk_bits;
    }

    /** Wires actually used (never more than one per chunk). */
    unsigned
    activeWires() const
    {
        return bus_wires < numChunks() ? bus_wires : numChunks();
    }

    /** Sequential waves of one-chunk-per-wire (Figure 4b). */
    unsigned
    numWaves() const
    {
        return numChunks() / activeWires();
    }

    /** Largest representable chunk value. */
    std::uint64_t
    maxValue() const
    {
        return (std::uint64_t{1} << chunk_bits) - 1;
    }

    /**
     * Abort on a layout no DESC model can carry, else return this
     * config (constructors validate before sizing members from it).
     * The width checks come first: the derived quantities divide.
     */
    const DescConfig &
    validate() const
    {
        DESC_ASSERT(chunk_bits >= 1 && chunk_bits <= 8,
                    "chunk size must be 1..8 bits: ", chunk_bits);
        DESC_ASSERT(bus_wires >= 1, "bus needs at least one wire");
        DESC_ASSERT(block_bits % chunk_bits == 0,
                    "block bits not divisible by chunk bits");
        DESC_ASSERT(numChunks() % activeWires() == 0,
                    "chunks (", numChunks(), ") not divisible by wires (",
                    activeWires(), ")");
        return *this;
    }
};

} // namespace desc::core

#endif // DESC_CORE_CONFIG_HH
