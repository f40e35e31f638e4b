#include "oracle/oracle.hh"

#include <algorithm>

#include "common/contract.hh"
#include "common/swar.hh"
#include "core/factory.hh"
#include "core/timing.hh"

namespace desc::oracle {

DescScalar::DescScalar(const core::DescConfig &cfg)
    : DescScheme(cfg), _last(_cfg.activeWires(), 0)
{
}

encoding::TransferResult
DescScalar::transfer(const BitVec &block)
{
    encoding::TransferResult result;

    const unsigned wires = _cfg.activeWires();
    const unsigned waves = _cfg.numWaves();
    const unsigned chunk_bits = _cfg.chunk_bits;

    if (_cfg.skip == core::SkipMode::None) {
        // One reset pulse, then every wire streams its queue back to
        // back; the block completes when the slowest wire finishes.
        // Walked wave-major so the chunks read sequentially; per-wire
        // time accumulates in a reused scratch vector.
        _wire_time.assign(wires, 0);
        BitCursor cur(block);
        for (unsigned g = 0; g < waves; g++) {
            for (unsigned w = 0; w < wires; w++) {
                std::uint64_t v = cur.next(chunk_bits);
                _wire_time[w] += core::chunkCycles(v, false, 0);
                _last[w] = std::uint8_t(v);
            }
        }
        Cycle window = 0;
        for (unsigned w = 0; w < wires; w++) {
            if (_wire_time[w] > window)
                window = _wire_time[w];
        }
        result.cycles = 1 + window;
        result.data_flips = _cfg.numChunks();
        // Reset pulse plus one sync-strobe transition per busy cycle.
        result.control_flips = 1 + result.cycles;
        return result;
    }

    // Value-skipped protocol: one chunk per wire per wave; the pulse
    // closing a wave is merged with the next wave's opening pulse.
    // The (wave, wire) order reads the block's chunks sequentially.
    BitCursor cur(block);
    Cycle cycles = 1; // opening pulse of wave 0
    std::uint64_t reset_flips = 1;
    for (unsigned g = 0; g < waves; g++) {
        unsigned window = 0;
        bool any_skipped = false;
        for (unsigned w = 0; w < wires; w++) {
            std::uint64_t v = cur.next(chunk_bits);
            std::uint64_t s = _cfg.skip == core::SkipMode::Zero
                ? 0
                : (_cfg.skip == core::SkipMode::Adaptive
                       ? _adaptive.best(w)
                       : _last[w]);
            if (v == s) {
                any_skipped = true;
                result.skipped++;
            } else {
                result.data_flips++;
                unsigned c = core::chunkCycles(v, true, s);
                if (c > window)
                    window = c;
            }
            _last[w] = std::uint8_t(v);
            if (_cfg.skip == core::SkipMode::Adaptive)
                _adaptive.update(w, std::uint8_t(v));
        }
        if (window == 0)
            window = 1; // all-skipped wave: closing pulse one cycle later
        cycles += window;
        if (g + 1 < waves)
            reset_flips++; // merged close/open
        else if (any_skipped)
            reset_flips++; // final closing pulse
    }
    result.cycles = cycles;
    result.control_flips = reset_flips + cycles; // + sync strobe
    return result;
}

void
DescScalar::reset()
{
    DescScheme::reset();
    std::fill(_last.begin(), _last.end(), 0);
}

encoding::TransferResult
DzcScalar::transfer(const BitVec &block)
{
    encoding::TransferResult result;
    result.cycles = _beats + 1; // zero-detect pipeline stage

    for (unsigned beat = 0; beat < _beats; beat++) {
        unsigned beat_base = beat * _wires;
        for (unsigned s = 0; s < _num_segs; s++) {
            const unsigned line = s * _seg_bits;
            unsigned pos = beat_base + line;
            std::uint64_t value = 0;
            if (pos < _block_bits) {
                unsigned avail = std::min(_seg_bits, _block_bits - pos);
                value = block.fieldUnchecked(pos, avail);
            }

            // The indicator follows the segment's zero-ness; a zero
            // segment's data wires hold.
            const bool zero = value == 0;
            result.control_flips += _zero_lines.bit(line) != zero;
            _zero_lines.setBit(line, zero);
            if (zero) {
                result.skipped++;
                continue;
            }
            std::uint64_t old = _state.fieldUnchecked(line, _seg_bits);
            result.data_flips += swar::popcount64(value ^ old);
            _state.setFieldUnchecked(line, _seg_bits, value);
        }
    }
    return result;
}

encoding::TransferResult
BusInvertScalar::transfer(const BitVec &block)
{
    encoding::TransferResult result;
    // Encode/decode pipeline stage for the non-trivial codings
    // (responsible for the ~1% execution-time overhead in Figure 20).
    result.cycles = _beats + (_mode == Mode::ZeroSkipEncoded ? 2 : 1);

    const std::uint64_t seg_mask = _seg_bits == 64
        ? ~std::uint64_t{0}
        : ((std::uint64_t{1} << _seg_bits) - 1);
    const bool skip_supported = _mode != Mode::Plain;
    const bool sparse = _mode == Mode::ZeroSkipSparse;

    for (unsigned beat = 0; beat < _beats; beat++) {
        unsigned beat_base = beat * _wires;
        for (unsigned s = 0; s < _num_segs; s++) {
            const unsigned line = s * _seg_bits;
            unsigned pos = beat_base + line;
            std::uint64_t value = 0;
            if (pos < _block_bits) {
                unsigned avail = std::min(_seg_bits, _block_bits - pos);
                value = block.fieldUnchecked(pos, avail);
            }
            std::uint64_t old = _state.fieldUnchecked(line, _seg_bits);
            const bool inv = _inv_lines.bit(line);
            const bool skip = sparse && _skip_lines.bit(line);

            // Cost of each transmission mode, counting the control
            // wires the mode would have to flip.
            unsigned cost_plain = swar::popcount64(value ^ old) + inv + skip;
            unsigned cost_inv = swar::popcount64((~value & seg_mask) ^ old)
                + !inv + skip;
            unsigned cost_skip = sparse && !skip ? 1 : 0;

            SegMode chosen = SegMode::AsIs;
            if (skip_supported && value == 0 &&
                cost_skip <= std::min(cost_plain, cost_inv)) {
                chosen = SegMode::Skip;
            } else if (cost_inv < cost_plain) {
                chosen = SegMode::Inverted;
            }
            _seg_modes[s] = chosen;

            if (chosen == SegMode::Skip) {
                // Data and invert wires hold; receiver substitutes 0.
                result.skipped++;
                result.control_flips += cost_skip;
                if (sparse)
                    _skip_lines.setBit(line, true);
                continue;
            }
            const bool invert = chosen == SegMode::Inverted;
            const std::uint64_t coded = invert ? ~value & seg_mask : value;
            result.data_flips += swar::popcount64(coded ^ old);
            _state.setFieldUnchecked(line, _seg_bits, coded);
            result.control_flips += (inv != invert) + skip;
            _inv_lines.setBit(line, invert);
            _skip_lines.setBit(line, false);
        }

        if (_mode == Mode::ZeroSkipEncoded)
            chargeModeBus(result);
    }
    return result;
}

ChunkStatsScalar::ChunkStatsScalar(unsigned chunk_bits, unsigned wires)
    : ChunkStats(chunk_bits, wires), _last(wires, 0),
      _last_valid(wires, false)
{
}

void
ChunkStatsScalar::observe(const BitVec &block)
{
    DESC_ASSERT(block.width() % _chunk_bits == 0,
                "block width not divisible by chunk size");
    const unsigned n = block.width() / _chunk_bits;
    BitCursor cur(block);
    unsigned w = 0;
    for (unsigned i = 0; i < n; i++) {
        const auto chunk = std::uint8_t(cur.next(_chunk_bits));
        _hist.sample(chunk);
        if (_last_valid[w]) {
            _match_candidates++;
            if (_last[w] == chunk)
                _matches++;
        }
        _last[w] = chunk;
        _last_valid[w] = true;
        if (++w == _wires)
            w = 0;
    }
}

std::unique_ptr<encoding::TransferScheme>
makeScheme(encoding::SchemeKind kind, const encoding::SchemeConfig &cfg)
{
    using encoding::SchemeKind;
    using Mode = BusInvertScalar::Mode;
    switch (kind) {
      case SchemeKind::DynamicZeroCompression:
        return std::make_unique<DzcScalar>(cfg);
      case SchemeKind::BusInvert:
        return std::make_unique<BusInvertScalar>(cfg, Mode::Plain);
      case SchemeKind::ZeroSkipBusInvert:
        return std::make_unique<BusInvertScalar>(cfg, Mode::ZeroSkipSparse);
      case SchemeKind::EncodedZeroSkipBusInvert:
        return std::make_unique<BusInvertScalar>(cfg, Mode::ZeroSkipEncoded);
      default:
        break;
    }
    // The DESC kinds take the kernel's config; Binary stays as built.
    auto scheme = core::makeScheme(kind, cfg);
    if (auto *d = dynamic_cast<core::DescScheme *>(scheme.get()))
        return std::make_unique<DescScalar>(d->config());
    return scheme;
}

} // namespace desc::oracle
