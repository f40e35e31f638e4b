#include "ecc/blockcodec.hh"

#include <algorithm>

#include "common/contract.hh"
#include "common/log.hh"

namespace desc::ecc {

BlockCodec::BlockCodec(unsigned block_bits, unsigned segment_data_bits)
    : _block_bits(block_bits), _segment_data_bits(segment_data_bits),
      _num_segments(block_bits / segment_data_bits),
      _code(segment_data_bits)
{
    DESC_ASSERT(block_bits % segment_data_bits == 0,
                "block not divisible into segments");
    DESC_ASSERT(block_bits % 64 == 0 && 64 % _num_segments == 0,
                "block codec needs whole 64-bit block words and a "
                "segment count dividing 64: ", block_bits, " bits in ",
                _num_segments, " segments");

    const unsigned words = block_bits / 64;
    _masks.assign(std::size_t(_code.parityBits()) * words, 0);
    for (unsigned g = 0; g < block_bits; g++) {
        const std::uint64_t col = _code.parityColumn(g / _num_segments);
        for (unsigned q = 0; q < _code.parityBits(); q++)
            _masks[q * words + g / 64] |= ((col >> q) & 1) << (g % 64);
    }
}

BitVec
BlockCodec::encode(const BitVec &block) const
{
    BitVec bus;
    encodeInto(block, bus);
    return bus;
}

void
BlockCodec::encodeInto(const BitVec &block, BitVec &bus) const
{
    DESC_ASSERT(block.width() == _block_bits, "block width mismatch");
    if (bus.width() != busBits())
        bus = BitVec(busBits());

    // Payload bits stay in the block's own positions; the parity tail
    // is rebuilt from zero.
    auto &out = bus.mutableWords();
    const auto &in = block.words();
    const std::size_t n = in.size();
    std::copy(in.begin(), in.end(), out.begin());
    std::fill(out.begin() + n, out.end(), 0);

    const unsigned segs = _num_segments;
    const std::uint64_t lane_mask =
        segs == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << segs) - 1;
    for (unsigned q = 0; q < _code.parityBits(); q++) {
        const std::uint64_t *mask = &_masks[q * n];
        std::uint64_t acc = 0;
        for (std::size_t w = 0; w < n; w++)
            acc ^= in[w] & mask[w];
        for (unsigned half = 32; half >= segs; half /= 2)
            acc ^= acc >> half;
        // Parity bit q of segment s goes to block_bits + q*S + s, so
        // each parity chunk also holds at most one bit per segment.
        const unsigned pos = q * segs;
        out[n + pos / 64] |= (acc & lane_mask) << (pos % 64);
    }
}

BlockCodec::DecodeResult
BlockCodec::decode(const BitVec &bus) const
{
    DESC_ASSERT(bus.width() == busBits(), "bus word width mismatch");
    // Cold: fault-injection studies only.
    DecodeResult result;
    result.block = BitVec(_block_bits);

    for (unsigned s = 0; s < _num_segments; s++) {
        BitVec code(_code.codeBits());
        for (unsigned k = 0; k < _segment_data_bits; k++)
            code.setBit(k, bus.bit(k * _num_segments + s));
        for (unsigned p = 0; p < _code.parityBits(); p++) {
            code.setBit(_segment_data_bits + p,
                        bus.bit(_block_bits + p * _num_segments + s));
        }
        auto decoded = _code.decode(code);
        switch (decoded.status) {
          case EccStatus::Ok:
            break;
          case EccStatus::Corrected:
            result.corrected++;
            break;
          case EccStatus::DetectedDouble:
            result.detected_double++;
            break;
        }
        for (unsigned k = 0; k < _segment_data_bits; k++)
            result.block.setBit(k * _num_segments + s, decoded.data.bit(k));
    }
    return result;
}

} // namespace desc::ecc
