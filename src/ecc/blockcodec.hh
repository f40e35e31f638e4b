/**
 * @file
 * Cache-block SECDED codec with DESC's interleaved layout (Figure 9).
 *
 * A 512-bit block is partitioned into segments (four 128-bit segments
 * for the (137, 128) code, eight 64-bit segments for (72, 64)), each
 * protected independently. Segment membership is bit-interleaved:
 * global bit g belongs to segment (g mod S). Because DESC chunks are
 * contiguous runs of chunk_bits <= S bits, every chunk touches each
 * segment at most once — so a corrupted chunk (one bad H-tree toggle,
 * up to chunk_bits wrong bits) injects at most one error per segment
 * and stays correctable, and two corrupted chunks stay detectable.
 * Parity bits are appended to the block in the same interleaved order,
 * forming the parity chunks carried by the extra ECC wires.
 */

#ifndef DESC_ECC_BLOCKCODEC_HH
#define DESC_ECC_BLOCKCODEC_HH

#include <cstdint>
#include <vector>

#include "common/bitvec.hh"
#include "ecc/hamming.hh"

namespace desc::ecc {

class BlockCodec
{
  public:
    /**
     * @param block_bits        payload block size (512)
     * @param segment_data_bits data bits per protected segment
     *                          (64 or 128 in the paper)
     */
    BlockCodec(unsigned block_bits, unsigned segment_data_bits);

    unsigned numSegments() const { return _num_segments; }

    /** Parity bits per segment (9 for (137,128), 8 for (72,64)). */
    unsigned parityBitsPerSegment() const { return _code.parityBits(); }

    /** Total parity bits appended to the block on the bus. */
    unsigned totalParityBits() const
    {
        return _num_segments * _code.parityBits();
    }

    /** Bits on the bus per protected block transfer. */
    unsigned busBits() const { return _block_bits + totalParityBits(); }

    /**
     * Encode a block into the bus word: the payload in its original
     * position followed by interleaved parity chunks.
     */
    BitVec encode(const BitVec &block) const;

    /**
     * encode() into a caller-owned bus word (resized on first use) —
     * no allocations in steady state. This is the hierarchy's
     * per-transfer path: a few AND/XOR folds per parity bit, one per
     * block word (see _masks).
     */
    void encodeInto(const BitVec &block, BitVec &bus) const;

    struct DecodeResult
    {
        BitVec block;
        unsigned corrected = 0;       //!< segments corrected
        unsigned detected_double = 0; //!< segments with detected 2-bit
        bool
        uncorrectable() const
        {
            return detected_double > 0;
        }
    };

    /** Decode a (possibly corrupted) bus word. */
    DecodeResult decode(const BitVec &bus) const;

  private:
    unsigned _block_bits;
    unsigned _segment_data_bits;
    unsigned _num_segments;
    SecdedCode _code;

    /**
     * _masks[q * W + w] selects the bits of block word w (of W) that
     * feed parity bit q of their segment. Block bit g belongs to
     * segment g mod S and S divides 64, so XOR-folding the masked
     * words down to S-bit lanes leaves parity bit q of segment s in
     * lane s — exactly the S bus bits at block_bits + q * S.
     */
    std::vector<std::uint64_t> _masks;
};

} // namespace desc::ecc

#endif // DESC_ECC_BLOCKCODEC_HH
