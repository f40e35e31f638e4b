#include "encoding/dzc.hh"

#include <algorithm>
#include <bit>

#include "common/contract.hh"
#include "common/swar.hh"

namespace desc::encoding {

namespace {

/**
 * One field (up to 64 wires, @p field_mask) of one beat: count
 * indicator transitions, skipped (zero) segments, and data flips on
 * the non-zero segments, holding zero segments' wires at their
 * previous levels. Segments past the block read zero.
 */
template <unsigned SB>
void
dzcField(std::uint64_t x, std::uint64_t field_mask, std::uint64_t &state,
         std::uint64_t &zero_marks, TransferResult &result)
{
    constexpr std::uint64_t lsb = swar::laneLsbMask(SB);
    constexpr std::uint64_t seg_ones = SB == 64
        ? ~std::uint64_t{0}
        : (std::uint64_t{1} << SB) - 1;
    const std::uint64_t nz = swar::nonzeroChunkMarkers<SB>(x);
    const std::uint64_t zero = lsb & field_mask & ~nz;
    // One indicator per segment: a flip whenever its level changes.
    result.control_flips += swar::popcount64(zero ^ zero_marks);
    zero_marks = zero;
    result.skipped += swar::popcount64(zero);
    // Non-zero segments drive their new value; zero segments hold.
    const std::uint64_t drive = nz * seg_ones;
    result.data_flips += swar::popcount64((x ^ state) & drive);
    state = (state & ~drive) | (x & drive);
}

} // namespace

DynamicZeroScheme::DynamicZeroScheme(const SchemeConfig &cfg)
    : _wires(cfg.bus_wires), _block_bits(cfg.block_bits),
      _seg_bits(cfg.segment_bits), _state(cfg.bus_wires),
      _zero_lines(cfg.bus_wires)
{
    DESC_ASSERT(_wires > 0, "bus needs at least one wire");
    DESC_ASSERT(_seg_bits > 0 && _seg_bits <= 64,
                "segment size must be 1..64 bits: ", _seg_bits);
    DESC_ASSERT(_wires % _seg_bits == 0,
                "bus width not divisible by segment size");
    // Power-of-two segments tile every 64-wire field.
    DESC_ASSERT(std::has_single_bit(_seg_bits),
                "segment size must be a power of two: ", _seg_bits);
    _beats = (_block_bits + _wires - 1) / _wires;
    _num_segs = _wires / _seg_bits;
    static constexpr FieldFn kFieldFns[7] = {
        dzcField<1>,  dzcField<2>,  dzcField<4>, dzcField<8>,
        dzcField<16>, dzcField<32>, dzcField<64>};
    _field_fn = kFieldFns[std::countr_zero(_seg_bits)];
}

TransferResult
DynamicZeroScheme::transfer(const BitVec &block)
{
    DESC_ASSERT(block.width() == _block_bits, "block width mismatch");
    TransferResult result;
    result.cycles = _beats + 1; // zero-detect pipeline stage

    auto &state = _state.mutableWords();
    auto &zero_marks = _zero_lines.mutableWords();
    for (unsigned beat = 0; beat < _beats; beat++) {
        // Each beat in 64-wire fields, as BinaryScheme walks it; a
        // power-of-two segment never straddles two fields.
        for (unsigned off = 0; off < _wires; off += 64) {
            const unsigned len = std::min(64u, _wires - off);
            const unsigned pos = beat * _wires + off;
            std::uint64_t value = 0;
            if (pos < _block_bits)
                value = block.fieldUnchecked(pos,
                                             std::min(len, _block_bits - pos));
            const std::uint64_t field_mask = len == 64
                ? ~std::uint64_t{0}
                : (std::uint64_t{1} << len) - 1;
            const unsigned f = off / 64;
            _field_fn(value, field_mask, state[f], zero_marks[f], result);
        }
    }
    return result;
}

void
DynamicZeroScheme::reset()
{
    _state.clear();
    _zero_lines.clear();
}

} // namespace desc::encoding
