/**
 * @file
 * Conventional binary (parallel) data transfer.
 *
 * A block is sliced into bus-width beats and driven one beat per cycle;
 * transitions are the Hamming distance between consecutive beats on the
 * wires. With bus_wires == 1 this degenerates into the serial transfer
 * of Figure 3b.
 */

#ifndef DESC_ENCODING_BINARY_HH
#define DESC_ENCODING_BINARY_HH

#include "encoding/scheme.hh"

namespace desc::encoding {

class BinaryScheme : public TransferScheme
{
  public:
    explicit BinaryScheme(const SchemeConfig &cfg);

    TransferResult transfer(const BitVec &block) override;
    unsigned dataWires() const override { return _wires; }
    unsigned controlWires() const override { return 0; }
    const char *name() const override { return "Conventional Binary"; }
    void reset() override;

    /** Wire levels after the last transfer, for differential tests. */
    const BitVec &wireLevels() const { return _state; }

  private:
    unsigned _wires;
    unsigned _block_bits;
    unsigned _beats;
    BitVec _state;
};

} // namespace desc::encoding

#endif // DESC_ENCODING_BINARY_HH
