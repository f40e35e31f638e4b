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

    /** Always true (every layout takes the word pass), for the
     *  traced benchmark's batched share. */
    bool usesBatchedPath() const { return true; }

    /** Line levels after the last transfer, for differential tests. */
    const BitVec &wireLevels() const { return _state; }
    const BitVec &zeroLevels() const { return _zero_lines; }

  protected:
    // Shared with the scalar test oracle (tests/oracle), a subclass.
    unsigned _wires;
    unsigned _block_bits;
    unsigned _beats;
    unsigned _seg_bits;
    unsigned _num_segs;

    /**
     * Data wire levels, and the zero-indicator levels with segment
     * s's indicator at bit s * segment_bits: the marker layout the
     * SWAR fold produces, so a field's indicator transitions are one
     * XOR + popcount per word of each vector.
     */
    BitVec _state;
    BitVec _zero_lines;

  private:
    /**
     * One field (up to 64 wires) of a beat, segment width fixed per
     * instantiation: updates the field's wire and indicator words.
     */
    using FieldFn = void (*)(std::uint64_t value, std::uint64_t field_mask,
                             std::uint64_t &wires,
                             std::uint64_t &zero_marks,
                             TransferResult &result);

    FieldFn _field_fn;
};

} // namespace desc::encoding

#endif // DESC_ENCODING_DZC_HH
