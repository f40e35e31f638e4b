#include "encoding/binary.hh"

#include "common/contract.hh"
#include "common/log.hh"
#include "common/swar.hh"

namespace desc::encoding {

BinaryScheme::BinaryScheme(const SchemeConfig &cfg)
    : _wires(cfg.bus_wires), _block_bits(cfg.block_bits), _state(cfg.bus_wires)
{
    DESC_ASSERT(_wires > 0, "bus needs at least one wire");
    _beats = (_block_bits + _wires - 1) / _wires;
}

TransferResult
BinaryScheme::transfer(const BitVec &block)
{
    DESC_ASSERT(block.width() == _block_bits, "block width mismatch");
    TransferResult result;
    result.cycles = _beats;

    // Walk the block in 64-bit pieces of each beat; XOR against the
    // persistent wire state to count transitions.
    for (unsigned beat = 0; beat < _beats; beat++) {
        unsigned beat_base = beat * _wires;
        for (unsigned off = 0; off < _wires; off += 64) {
            unsigned len = std::min(64u, _wires - off);
            unsigned pos = beat_base + off;
            std::uint64_t fresh = 0;
            if (pos < _block_bits) {
                unsigned avail = std::min(len, _block_bits - pos);
                fresh = block.fieldUnchecked(pos, avail);
            }
            std::uint64_t old = _state.fieldUnchecked(off, len);
            result.data_flips += swar::popcount64(fresh ^ old);
            _state.setFieldUnchecked(off, len, fresh);
        }
    }
    return result;
}

void
BinaryScheme::reset()
{
    _state.clear();
}

} // namespace desc::encoding
