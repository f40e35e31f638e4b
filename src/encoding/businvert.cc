#include "encoding/businvert.hh"

#include <algorithm>
#include <bit>

#include "common/contract.hh"
#include "common/log.hh"
#include "common/swar.hh"

namespace desc::encoding {

namespace {

/** Segments packed per 32-bit word of the encoded mode bus (3^20 fits
 *  in 32 bits, giving ~1.6 mode bits per segment). */
constexpr unsigned kSegsPerModeWord = 20;

/**
 * Every B-bit segment of one field at once. With pc = popcount(value
 * ^ old), inverting costs B - pc + !inv flips against pc + inv
 * plainly (the sparse skip-line term is common to both), so it wins
 * iff pc + inv > B/2. A zero segment skips when that is no dearer: always
 * in the encoded mode; in the sparse mode unless its skip line would
 * rise while the wires already show zero with the invert line low
 * (free to send). All ones with the invert line high would be free
 * too, but only a zero segment sent inverted leaves that state, and
 * from any reachable state a zero segment skips or goes out plain.
 */
template <unsigned B>
std::uint64_t
laneField(std::uint64_t v, std::uint64_t field_mask,
          BusInvertScheme::Mode mode, std::uint64_t &wires,
          std::uint64_t &inv, std::uint64_t &skip, TransferResult &result)
{
    using Mode = BusInvertScheme::Mode;
    constexpr std::uint64_t lane_ones =
        B == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << B) - 1;
    // Adding the bias carries into a lane's top bit iff
    // pc + inv > B/2, and never out of the lane (pc + inv <= B + 1).
    constexpr std::uint64_t lsb = swar::laneLsbMask(B);
    constexpr std::uint64_t bias =
        lsb * ((std::uint64_t{1} << (B - 1)) - B / 2 - 1);
    const std::uint64_t lanes = lsb & field_mask;
    const std::uint64_t old = wires;

    std::uint64_t skip_now = 0;
    if (mode != Mode::Plain) {
        skip_now = lanes & ~swar::foldNonzero<B>(v);
        if (mode == Mode::ZeroSkipSparse) {
            const std::uint64_t shows_zero = ~swar::foldNonzero<B>(old);
            skip_now &= skip | ~(shows_zero & ~inv);
            result.control_flips += swar::popcount64(skip ^ skip_now);
            skip = skip_now;
        }
    }
    const std::uint64_t drive = lanes & ~skip_now;
    const std::uint64_t pc = swar::lanePopcount<B>(v ^ old);
    const std::uint64_t send_inv = ((pc + inv + bias) >> (B - 1)) & drive;
    const std::uint64_t delta =
        (v ^ (send_inv * lane_ones) ^ old) & (drive * lane_ones);
    result.data_flips += swar::popcount64(delta);
    wires = old ^ delta;
    // Driven segments set their invert line; skipped ones hold it.
    const std::uint64_t new_inv = (inv & ~drive) | send_inv;
    result.control_flips += swar::popcount64(inv ^ new_inv);
    inv = new_inv;
    result.skipped += swar::popcount64(skip_now);
    return skip_now;
}

} // namespace

BusInvertScheme::BusInvertScheme(const SchemeConfig &cfg, Mode mode)
    : _wires(cfg.bus_wires), _block_bits(cfg.block_bits),
      _seg_bits(cfg.segment_bits), _mode(mode), _state(cfg.bus_wires),
      _inv_lines(cfg.bus_wires), _skip_lines(cfg.bus_wires)
{
    DESC_ASSERT(_wires > 0, "bus needs at least one wire");
    DESC_ASSERT(_seg_bits > 0 && _seg_bits <= 64,
                "segment size must be 1..64 bits: ", _seg_bits);
    DESC_ASSERT(_wires % _seg_bits == 0,
                "bus width ", _wires, " not divisible by segment ",
                _seg_bits);
    // The lane pass needs whole segments of >= 4 bits in every
    // 64-wire field.
    DESC_ASSERT(_seg_bits >= 4 && 64 % _seg_bits == 0,
                "segment size must be 4, 8, 16, 32 or 64 bits: ", _seg_bits);
    _beats = (_block_bits + _wires - 1) / _wires;
    _num_segs = _wires / _seg_bits;
    _mode_state.assign((_num_segs + kSegsPerModeWord - 1) / kSegsPerModeWord,
                       0);
    _seg_modes.assign(_num_segs, SegMode::AsIs);
    static constexpr LaneFn kLaneFns[] = {laneField<4>, laneField<8>,
                                          laneField<16>, laneField<32>,
                                          laneField<64>};
    _lane_fn = kLaneFns[std::countr_zero(_seg_bits) - 2];
}

unsigned
BusInvertScheme::controlWires() const
{
    switch (_mode) {
      case Mode::Plain:
        return _num_segs;
      case Mode::ZeroSkipSparse:
        return 2 * _num_segs;
      case Mode::ZeroSkipEncoded:
        return unsigned(_mode_state.size()) * 32;
    }
    DESC_PANIC("bad bus-invert mode");
}

const char *
BusInvertScheme::name() const
{
    switch (_mode) {
      case Mode::Plain:
        return "Bus Invert Coding";
      case Mode::ZeroSkipSparse:
        return "Zero Skipped Bus Invert";
      case Mode::ZeroSkipEncoded:
        return "Encoded Zero Skipped Bus Invert";
    }
    DESC_PANIC("bad bus-invert mode");
}

void
BusInvertScheme::chargeModeBus(TransferResult &result)
{
    // The dense mode bus re-transmits all segment modes each beat as
    // a packed base-3 number; its transitions are control flips.
    for (unsigned w = 0; w < _mode_state.size(); w++) {
        std::uint32_t packed = 0;
        unsigned lo = w * kSegsPerModeWord;
        unsigned hi = std::min<unsigned>(lo + kSegsPerModeWord, _num_segs);
        for (unsigned s = hi; s-- > lo;)
            packed = packed * 3 + std::uint32_t(_seg_modes[s]);
        result.control_flips += swar::popcount64(packed ^ _mode_state[w]);
        _mode_state[w] = packed;
    }
}

TransferResult
BusInvertScheme::transfer(const BitVec &block)
{
    DESC_ASSERT(block.width() == _block_bits, "block width mismatch");
    TransferResult result;
    // Encode/decode pipeline stage for the non-trivial codings
    // (responsible for the ~1% execution-time overhead in Figure 20).
    result.cycles = _beats + (_mode == Mode::ZeroSkipEncoded ? 2 : 1);
    const bool encoded = _mode == Mode::ZeroSkipEncoded;
    auto &wires = _state.mutableWords();
    auto &inv = _inv_lines.mutableWords();
    auto &skip = _skip_lines.mutableWords();

    for (unsigned beat = 0; beat < _beats; beat++) {
        // Each beat in 64-wire fields, as BinaryScheme walks it; b | 64
        // keeps every segment inside one field.
        for (unsigned off = 0; off < _wires; off += 64) {
            const unsigned len = std::min(64u, _wires - off);
            const unsigned pos = beat * _wires + off;
            std::uint64_t value = 0;
            if (pos < _block_bits)
                value = block.fieldUnchecked(pos,
                                             std::min(len, _block_bits - pos));
            const unsigned f = off / 64;
            const std::uint64_t field_mask = len == 64
                ? ~std::uint64_t{0}
                : (std::uint64_t{1} << len) - 1;
            const std::uint64_t skipped = _lane_fn(
                value, field_mask, _mode, wires[f], inv[f], skip[f], result);
            if (!encoded)
                continue;
            for (unsigned bit = 0; bit < len; bit += _seg_bits) {
                _seg_modes[(off + bit) / _seg_bits] = (skipped >> bit) & 1
                    ? SegMode::Skip
                    : SegMode((inv[f] >> bit) & 1);
            }
        }
        if (encoded)
            chargeModeBus(result);
    }
    return result;
}

void
BusInvertScheme::reset()
{
    _state.clear();
    _inv_lines.clear();
    _skip_lines.clear();
    std::fill(_mode_state.begin(), _mode_state.end(), 0);
}

} // namespace desc::encoding
