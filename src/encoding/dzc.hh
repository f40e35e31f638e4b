/**
 * @file
 * Dynamic zero compression (Villa, Zhang & Asanovic, MICRO 2000).
 *
 * Each segment of the bus owns a zero-indicator wire. A segment whose
 * value is zero transmits only the indicator; its data wires hold
 * their previous levels. Non-zero segments transmit normally with the
 * indicator deasserted.
 */

#ifndef DESC_ENCODING_DZC_HH
#define DESC_ENCODING_DZC_HH

#include "encoding/scheme.hh"

namespace desc::encoding {

class DynamicZeroScheme : public TransferScheme
{
  public:
    explicit DynamicZeroScheme(const SchemeConfig &cfg);

    TransferResult transfer(const BitVec &block) override;
    unsigned dataWires() const override { return _wires; }
    unsigned controlWires() const override { return _num_segs; }
    const char *name() const override { return "Dynamic Zero Compression"; }
    void reset() override;

    /** True when transfer() takes the word-at-a-time batched pass. */
    bool usesBatchedPath() const { return _batched; }

    /** Line levels after the last transfer, for differential tests. */
    const BitVec &wireLevels() const { return _state; }
    const BitVec &zeroLevels() const { return _zero_lines; }

  private:
    TransferResult transferScalar(const BitVec &block);
    TransferResult transferBatched(const BitVec &block);

    unsigned _wires;
    unsigned _block_bits;
    unsigned _beats;
    unsigned _seg_bits;
    unsigned _num_segs;
    bool _batched; //!< word pass (latched encoder mode + layout gate)

    /**
     * Data wire levels, and the zero-indicator levels with segment
     * s's indicator at bit s * segment_bits: the marker layout the
     * SWAR fold produces, so a beat's indicator transitions in the
     * word pass are one XOR + popcount per word of each vector.
     */
    BitVec _state;
    BitVec _zero_lines;
};

} // namespace desc::encoding

#endif // DESC_ENCODING_DZC_HH
