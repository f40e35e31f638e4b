/**
 * @file
 * Chunking of cache blocks and chunk/wire assignment (Figure 4).
 *
 * A block is partitioned into fixed-size contiguous chunks; chunk i is
 * assigned to wire (i mod W) at queue slot (i div W), so with fewer
 * wires than chunks each wire transmits its queue in successive waves.
 */

#ifndef DESC_CORE_CHUNK_HH
#define DESC_CORE_CHUNK_HH

#include <cstdint>
#include <vector>

#include "common/bitvec.hh"
#include "common/stats.hh"

namespace desc::core {

/** Chunk values of @p block, lowest-order chunk first. */
std::vector<std::uint8_t> splitChunks(const BitVec &block,
                                      unsigned chunk_bits);

/** Reassemble a block from chunk values. */
BitVec joinChunks(const std::vector<std::uint8_t> &chunks,
                  unsigned chunk_bits, unsigned block_bits);

/** Wire transmitting chunk @p i on a bus with @p wires active wires. */
inline unsigned
chunkWire(unsigned i, unsigned wires)
{
    return i % wires;
}

/** Queue slot (wave) of chunk @p i. */
inline unsigned
chunkSlot(unsigned i, unsigned wires)
{
    return i / wires;
}

/**
 * Chunk-value statistics accumulated over a stream of blocks: the
 * value histogram of Figure 12 and the consecutive-chunk match
 * fraction (per wire) of Figure 13.
 */
class ChunkStats
{
  public:
    ChunkStats(unsigned chunk_bits, unsigned wires);

    /**
     * Account one transferred block: chunk i goes to wire
     * i % wires. Chunk widths 1, 2, 4 and 8 only.
     */
    void observe(const BitVec &block);

    /** Fraction of chunks with value @p v (Figure 12). */
    double valueFraction(std::uint8_t v) const;

    /** Fraction of zero chunks. */
    double zeroFraction() const { return valueFraction(0); }

    /**
     * Fraction of chunks equal to the previous chunk transmitted on
     * the same wire (Figure 13).
     */
    double lastValueMatchFraction() const;

    std::uint64_t totalChunks() const { return _hist.total(); }

    const Histogram &histogram() const { return _hist; }

    unsigned chunkBits() const { return _chunk_bits; }
    unsigned wires() const { return _wires; }
    std::uint64_t matches() const { return _matches; }
    std::uint64_t matchCandidates() const { return _match_candidates; }

    /**
     * Reinstate previously harvested statistics (run-cache reload).
     * The per-wire last-value state is not part of the harvest, so a
     * restored object reports correct aggregates but must not
     * observe() further blocks.
     */
    void
    restore(Histogram hist, std::uint64_t matches,
            std::uint64_t match_candidates)
    {
        _hist = std::move(hist);
        _matches = matches;
        _match_candidates = match_candidates;
    }

  protected:
    // Shared with the scalar test oracle (tests/oracle), a subclass.
    unsigned _chunk_bits;
    unsigned _wires;
    Histogram _hist;
    std::uint64_t _matches = 0;
    std::uint64_t _match_candidates = 0;

  private:
    /**
     * The last chunk on every wire, packed as a wave is in the block
     * (wire w's chunk at bit w * chunk_bits), and how many wires have
     * carried a chunk. Every block starts at wire 0, so the wires seen
     * so far are always a prefix and one count holds their validity.
     */
    BitVec _prev;
    unsigned _valid_wires = 0;
};

} // namespace desc::core

#endif // DESC_CORE_CHUNK_HH
