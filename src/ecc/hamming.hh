/**
 * @file
 * SECDED (single-error-correct, double-error-detect) Hamming codes.
 *
 * The paper protects the L2 with the (72, 64) and (137, 128) Hamming
 * codes (Section 3.2.3). This is the classic construction: parity bits
 * sit at power-of-two positions of the extended codeword, and one
 * overall parity bit upgrades single-error correction to double-error
 * detection.
 */

#ifndef DESC_ECC_HAMMING_HH
#define DESC_ECC_HAMMING_HH

#include <vector>

#include "common/bitvec.hh"

namespace desc::ecc {

/** Outcome of decoding one codeword. */
enum class EccStatus {
    Ok,             //!< no error
    Corrected,      //!< single error corrected
    DetectedDouble, //!< uncorrectable double error detected
};

const char *eccStatusName(EccStatus status);

class SecdedCode
{
  public:
    /**
     * Build the SECDED code for @p data_bits of payload: 64 gives the
     * (72, 64) code, 128 gives the (137, 128) code.
     */
    explicit SecdedCode(unsigned data_bits);

    /** Parity bits including the overall parity. */
    unsigned parityBits() const { return _parity_bits + 1; }

    /** Total codeword length (e.g.\ 72 or 137). */
    unsigned codeBits() const { return _data_bits + parityBits(); }

    /** Encode a payload into a codeword (data first, parity after). */
    BitVec encode(const BitVec &data) const;

    /**
     * Parity column of data bit @p i: the parity bits (Hamming parity
     * in the low bits, the overall parity above them) of the payload
     * whose only set bit is @p i. The code is linear over GF(2), so a
     * payload's parity is the XOR of its set bits' columns; the block
     * codec folds these columns into word masks.
     */
    std::uint64_t parityColumn(unsigned i) const;

    struct DecodeResult
    {
        EccStatus status;
        BitVec data;
    };

    /** Decode (and correct if possible) a codeword. */
    DecodeResult decode(const BitVec &codeword) const;

  private:
    unsigned _data_bits;
    unsigned _parity_bits; //!< Hamming parity bits (excl. overall)

    /** Position of data bit i within the 1-based Hamming codeword. */
    std::vector<unsigned> _data_pos;

    /** Hamming position -> data index (or -1u for parity). */
    std::vector<unsigned> _pos_data;
};

} // namespace desc::ecc

#endif // DESC_ECC_HAMMING_HH
