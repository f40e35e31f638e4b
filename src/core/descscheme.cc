#include "core/descscheme.hh"

#include <algorithm>
#include <bit>

#include "common/contract.hh"
#include "common/swar.hh"
#include "core/timing.hh"

namespace desc::core {

struct DescScheme::WaveScan
{
    Cycle window = 0;
    unsigned skipped = 0;
};

namespace {

using WaveScan = DescScheme::WaveScan;

/** Zero-skip wave: a chunk is driven iff non-zero, at cost v. */
template <unsigned B>
WaveScan
zeroWave(const std::uint64_t *cur, const std::uint64_t *, unsigned wpw,
         unsigned wires)
{
    std::uint64_t maxv = 0;
    unsigned sent = 0;
    for (unsigned j = 0; j < wpw; j++) {
        const std::uint64_t x = cur[j];
        if (!x)
            continue;
        sent += swar::nonzeroChunks<B>(x);
        maxv = std::max(maxv, swar::maxChunk<B>(x));
    }
    return {Cycle(maxv), wires - sent};
}

/** Basic mode, single wave: every chunk is driven, at cost v + 1. */
template <unsigned B>
WaveScan
basicWave(const std::uint64_t *cur, const std::uint64_t *prev,
          unsigned wpw, unsigned wires)
{
    return {zeroWave<B>(cur, prev, wpw, wires).window + 1, 0};
}

/**
 * Last-value-skip wave: a chunk is driven iff it differs from the
 * previous wave's chunk on the same wire, at cost
 * chunkCycles(v, skip=true, s) = v + (v < s). The +1 cannot carry out
 * of the chunk because v < s bounds v below the chunk maximum; chunks
 * equal to their skip value are masked out of the window fold.
 */
template <unsigned B>
WaveScan
lastValueWave(const std::uint64_t *cur, const std::uint64_t *prev,
              unsigned wpw, unsigned wires)
{
    constexpr std::uint64_t lane_ones = (std::uint64_t{1} << B) - 1;
    std::uint64_t maxv = 0;
    unsigned sent = 0;
    for (unsigned j = 0; j < wpw; j++) {
        const std::uint64_t d = cur[j] ^ prev[j];
        if (!d)
            continue;
        const std::uint64_t markers = swar::nonzeroChunkMarkers<B>(d);
        sent += swar::popcount64(markers);
        const std::uint64_t adj =
            cur[j] + swar::lessPerChunk<B>(cur[j], prev[j]);
        maxv = std::max(maxv,
                        swar::maxChunk<B>(adj & (markers * lane_ones)));
    }
    return {Cycle(maxv), wires - sent};
}

/** Instantiations per skip mode (None, Zero, LastValue) and chunk
 *  width (1, 2, 4, 8, indexed by log2). */
constexpr DescScheme::LaneFn kLanes[3][4] = {
    {basicWave<1>, basicWave<2>, basicWave<4>, basicWave<8>},
    {zeroWave<1>, zeroWave<2>, zeroWave<4>, zeroWave<8>},
    {lastValueWave<1>, lastValueWave<2>, lastValueWave<4>,
     lastValueWave<8>},
};

} // namespace

DescScheme::DescScheme(const DescConfig &cfg)
    : _cfg(cfg.validate()),
      _adaptive(_cfg.activeWires(), _cfg.chunk_bits),
      _last(_cfg.activeWires() * _cfg.chunk_bits)
{
    // The SWAR lanes need chunks that pack a 64-bit word evenly and
    // waves that are whole-word slices of the block (a single wave
    // always starts at bit 0). The adaptive tracker updates per chunk
    // in stream order, and basic mode sums each wire's time across
    // waves: both take the scalar lane, as do all other layouts.
    const unsigned waves = _cfg.numWaves();
    const bool whole_words = waves == 1
        || (_cfg.activeWires() * _cfg.chunk_bits) % 64 == 0;
    if (_cfg.skip != SkipMode::Adaptive
        && swar::supportedChunk(_cfg.chunk_bits) && whole_words
        && (_cfg.skip != SkipMode::None || waves == 1)) {
        _lane = kLanes[unsigned(_cfg.skip)]
                      [std::countr_zero(_cfg.chunk_bits)];
    }
}

const char *
DescScheme::name() const
{
    switch (_cfg.skip) {
      case SkipMode::None:
        return "Basic DESC";
      case SkipMode::Zero:
        return "Zero Skipped DESC";
      case SkipMode::LastValue:
        return "Last Value Skipped DESC";
      case SkipMode::Adaptive:
        return "Adaptive Skipped DESC";
    }
    DESC_PANIC("bad skip mode");
}

encoding::TransferResult
DescScheme::transfer(const BitVec &block)
{
    DESC_ASSERT(block.width() == _cfg.block_bits, "block width mismatch");
    encoding::TransferResult result;

    // Value-skipped protocol: one chunk per wire per wave, and the
    // pulse closing a wave is merged with the next wave's opening
    // pulse. Basic mode sends one reset pulse, then every wire streams
    // its queue back to back: the whole block is one window, closed
    // by the slowest wire.
    const bool basic = _cfg.skip == SkipMode::None;
    const unsigned waves = basic ? 1 : _cfg.numWaves();
    const unsigned wires = _cfg.activeWires();
    const auto &words = block.words();
    // Each wave is a whole-word slice on the SWAR lane; a single wave
    // spans the entire block, whose padding bits read zero and so
    // never produce spurious chunk activity.
    const unsigned wpw = _cfg.numWaves() > 1
        ? wires * _cfg.chunk_bits / 64
        : unsigned(words.size());

    Cycle cycles = 1; // opening pulse of wave 0
    std::uint64_t reset_flips = 1;
    for (unsigned g = 0; g < waves; g++) {
        WaveScan scan;
        if (_lane) {
            // Last-value skip compares against the preceding word
            // slice of this block, or the previous block's final wave
            // for wave 0.
            const std::uint64_t *cur = words.data() + std::size_t(g) * wpw;
            scan = _lane(cur, g == 0 ? _last.words().data() : cur - wpw,
                         wpw, wires);
        } else {
            scan = scanScalar(block, g);
        }
        result.skipped += scan.skipped;
        // An all-skipped wave: the closing pulse one cycle later.
        cycles += std::max<Cycle>(scan.window, 1);
        if (g + 1 < waves)
            reset_flips++; // merged close/open
        else if (scan.skipped)
            reset_flips++; // final closing pulse
    }
    if (_cfg.skip == SkipMode::LastValue) {
        const unsigned wave_bits = _last.width();
        _last.copyRange(block, _cfg.block_bits - wave_bits, wave_bits);
    }
    result.cycles = cycles;
    result.data_flips = _cfg.numChunks() - result.skipped;
    result.control_flips = reset_flips + cycles; // + sync strobe
    return result;
}

DescScheme::WaveScan
DescScheme::scanScalar(const BitVec &block, unsigned wave)
{
    const unsigned wires = _cfg.activeWires();
    const unsigned chunk_bits = _cfg.chunk_bits;
    WaveScan scan;

    if (_cfg.skip == SkipMode::None) {
        // Every wave at once, wave-major: per-wire time accumulates.
        _wire_time.assign(wires, 0);
        BitCursor cur(block);
        for (unsigned g = 0; g < _cfg.numWaves(); g++) {
            for (unsigned w = 0; w < wires; w++)
                _wire_time[w] += chunkCycles(cur.next(chunk_bits), false, 0);
        }
        scan.window = *std::max_element(_wire_time.begin(), _wire_time.end());
        return scan;
    }

    const unsigned wave_bits = wires * chunk_bits;
    BitCursor cur(block, wave * wave_bits);
    BitCursor prev = wave == 0 ? BitCursor(_last)
                               : BitCursor(block, (wave - 1) * wave_bits);
    for (unsigned w = 0; w < wires; w++) {
        const std::uint64_t v = cur.next(chunk_bits);
        const std::uint64_t last = prev.next(chunk_bits);
        const std::uint64_t s = _cfg.skip == SkipMode::Zero
            ? 0
            : (_cfg.skip == SkipMode::Adaptive ? _adaptive.best(w) : last);
        if (v == s)
            scan.skipped++;
        else
            scan.window = std::max<Cycle>(scan.window,
                                          chunkCycles(v, true, s));
        if (_cfg.skip == SkipMode::Adaptive)
            _adaptive.update(w, std::uint8_t(v));
    }
    return scan;
}

void
DescScheme::reset()
{
    _last.clear();
    _adaptive.reset();
}

} // namespace desc::core
