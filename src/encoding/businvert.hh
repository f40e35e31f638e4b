/**
 * @file
 * Bus-invert coding (Stan & Burleson) and its zero-skipping variants.
 *
 * The bus is divided into segments; each segment owns an invert line.
 * If transmitting a beat plainly would flip more wires than
 * transmitting its complement (counting the invert line itself), the
 * complement is sent. The paper extends this baseline with zero
 * skipping in two flavors (Section 4.1):
 *
 *  - sparse: one extra skip wire per segment signals that the segment
 *    value is zero and the data wires simply hold their old levels;
 *  - encoded: the per-segment mode (plain/inverted/skipped) is packed
 *    into a dense binary mode bus, trading wires for extra transitions
 *    and encode/decode latency.
 */

#ifndef DESC_ENCODING_BUSINVERT_HH
#define DESC_ENCODING_BUSINVERT_HH

#include <vector>

#include "encoding/scheme.hh"

namespace desc::encoding {

class BusInvertScheme : public TransferScheme
{
  public:
    enum class Mode { Plain, ZeroSkipSparse, ZeroSkipEncoded };

    BusInvertScheme(const SchemeConfig &cfg, Mode mode);

    TransferResult transfer(const BitVec &block) override;
    unsigned dataWires() const override { return _wires; }
    unsigned controlWires() const override;
    const char *name() const override;
    void reset() override;

    /** Line levels after the last transfer, for differential tests. */
    const BitVec &wireLevels() const { return _state; }
    const BitVec &invertLevels() const { return _inv_lines; }
    const BitVec &skipLevels() const { return _skip_lines; }
    const std::vector<std::uint32_t> &modeBus() const { return _mode_state; }

  protected:
    // Shared with the scalar test oracle (tests/oracle), a subclass.
    /** Per-segment transmission decision for one beat. */
    enum class SegMode : std::uint8_t { AsIs = 0, Inverted = 1, Skip = 2 };

    void chargeModeBus(TransferResult &result);

    unsigned _wires;
    unsigned _block_bits;
    unsigned _beats;
    unsigned _seg_bits;
    unsigned _num_segs;
    Mode _mode;

    /**
     * Wire state, one bit per wire: the data wire levels, and the
     * invert and sparse-skip line levels with segment s's line at bit
     * s * segment_bits — the lane-LSB layout the lane pass computes
     * in, so its per-field state is a plain word of each vector.
     */
    BitVec _state;
    BitVec _inv_lines;
    BitVec _skip_lines;
    std::vector<std::uint32_t> _mode_state; //!< encoded mode bus words
    std::vector<SegMode> _seg_modes;  //!< reused per-beat scratch

  private:
    /**
     * One field (up to 64 wires, @p field_mask) of a beat through the
     * lane pass: updates the field's wire, invert and skip words and
     * returns the lane-LSB marks of the segments it skipped.
     */
    using LaneFn = std::uint64_t (*)(std::uint64_t value,
                                     std::uint64_t field_mask, Mode mode,
                                     std::uint64_t &wires,
                                     std::uint64_t &inv,
                                     std::uint64_t &skip,
                                     TransferResult &result);

    LaneFn _lane_fn; //!< lane pass for this segment width
};

} // namespace desc::encoding

#endif // DESC_ENCODING_BUSINVERT_HH
