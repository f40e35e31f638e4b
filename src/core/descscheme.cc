#include "core/descscheme.hh"

#include <algorithm>
#include <bit>

#include "common/contract.hh"
#include "common/swar.hh"
#include "core/chunk.hh"
#include "core/timing.hh"

namespace desc::core {

namespace {

/** Occupancy window and driven-chunk count of one scanned wave. */
struct WaveScan
{
    std::uint64_t maxv = 0;
    unsigned sent = 0;
};

/** Zero-skip wave: a chunk is driven iff non-zero, at cost v. */
template <unsigned B>
WaveScan
scanZeroWave(const std::uint64_t *cur, unsigned wpw)
{
    WaveScan r;
    for (unsigned j = 0; j < wpw; j++) {
        const std::uint64_t x = cur[j];
        if (!x)
            continue;
        r.sent += swar::nonzeroChunks<B>(x);
        r.maxv = std::max(r.maxv, swar::maxChunk<B>(x));
    }
    return r;
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
scanLastWave(const std::uint64_t *cur, const std::uint64_t *prev,
             unsigned wpw)
{
    constexpr std::uint64_t lane_ones = (std::uint64_t{1} << B) - 1;
    WaveScan r;
    for (unsigned j = 0; j < wpw; j++) {
        const std::uint64_t d = cur[j] ^ prev[j];
        if (!d)
            continue;
        const std::uint64_t markers = swar::nonzeroChunkMarkers<B>(d);
        r.sent += swar::popcount64(markers);
        const std::uint64_t adj =
            cur[j] + swar::lessPerChunk<B>(cur[j], prev[j]);
        r.maxv = std::max(r.maxv,
                          swar::maxChunk<B>(adj & (markers * lane_ones)));
    }
    return r;
}

/** Basic mode, single wave: the slowest wire is the maximum chunk. */
template <unsigned B>
std::uint64_t
maxOverWords(const std::uint64_t *cur, unsigned wpw)
{
    std::uint64_t maxv = 0;
    for (unsigned j = 0; j < wpw; j++)
        maxv = std::max(maxv, swar::maxChunk<B>(cur[j]));
    return maxv;
}

using ScanZeroFn = WaveScan (*)(const std::uint64_t *, unsigned);
using ScanLastFn = WaveScan (*)(const std::uint64_t *,
                                const std::uint64_t *, unsigned);
using MaxFn = std::uint64_t (*)(const std::uint64_t *, unsigned);

/** Instantiations for each supported chunk width, indexed by log2. */
constexpr ScanZeroFn kScanZero[4] = {scanZeroWave<1>, scanZeroWave<2>,
                                     scanZeroWave<4>, scanZeroWave<8>};
constexpr ScanLastFn kScanLast[4] = {scanLastWave<1>, scanLastWave<2>,
                                     scanLastWave<4>, scanLastWave<8>};
constexpr MaxFn kMaxWords[4] = {maxOverWords<1>, maxOverWords<2>,
                                maxOverWords<4>, maxOverWords<8>};

/** log2 of a supported chunk width (1, 2, 4, 8). */
inline unsigned
chunkLog2(unsigned b)
{
    return unsigned(std::countr_zero(b));
}

} // namespace

DescScheme::DescScheme(const DescConfig &cfg)
    : _cfg(cfg), _adaptive(cfg.activeWires(), cfg.chunk_bits)
{
    _cfg.validate();
    _batched = batchedSupported()
        && encoding::defaultEncoderMode() != encoding::EncoderMode::Scalar;
    if (_batched) {
        const unsigned wave_bits = _cfg.activeWires() * _cfg.chunk_bits;
        _last_words.assign((wave_bits + 63) / 64, 0);
    } else {
        _last.assign(_cfg.activeWires(), 0);
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

bool
DescScheme::batchedSupported() const
{
    // The SWAR pass needs chunks that pack a 64-bit word evenly and a
    // wave layout where every wave is a whole-word slice of the block
    // (a single wave always starts at bit 0, so only multi-wave
    // configurations need the alignment). The adaptive tracker updates
    // per chunk in stream order and stays on the reference loop; basic
    // mode accumulates per-wire time across waves, which the word pass
    // only reproduces for the single-wave layout.
    if (_cfg.skip == SkipMode::Adaptive)
        return false;
    if (!swar::supportedChunk(_cfg.chunk_bits))
        return false;
    const unsigned waves = _cfg.numWaves();
    if (waves > 1 && (_cfg.activeWires() * _cfg.chunk_bits) % 64 != 0)
        return false;
    if (_cfg.skip == SkipMode::None && waves > 1)
        return false;
    return true;
}

encoding::TransferResult
DescScheme::transfer(const BitVec &block)
{
    DESC_ASSERT(block.width() == _cfg.block_bits, "block width mismatch");
    if (_batched)
        return transferBatched(block);
    return transferScalar(block);
}

encoding::TransferResult
DescScheme::transferScalar(const BitVec &block)
{
    encoding::TransferResult result;

    const unsigned wires = _cfg.activeWires();
    const unsigned waves = _cfg.numWaves();
    const unsigned chunk_bits = _cfg.chunk_bits;

    if (_cfg.skip == SkipMode::None) {
        // One reset pulse, then every wire streams its queue back to
        // back; the block completes when the slowest wire finishes.
        // Walked wave-major so the chunks read sequentially; per-wire
        // time accumulates in a reused scratch vector.
        _wire_time.assign(wires, 0);
        BitCursor cur(block);
        for (unsigned g = 0; g < waves; g++) {
            for (unsigned w = 0; w < wires; w++) {
                std::uint64_t v = cur.next(chunk_bits);
                _wire_time[w] += chunkCycles(v, false, 0);
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
            std::uint64_t s = _cfg.skip == SkipMode::Zero
                ? 0
                : (_cfg.skip == SkipMode::Adaptive
                       ? _adaptive.best(w)
                       : _last[w]);
            if (v == s) {
                any_skipped = true;
                result.skipped++;
            } else {
                result.data_flips++;
                unsigned c = chunkCycles(v, true, s);
                if (c > window)
                    window = c;
            }
            _last[w] = std::uint8_t(v);
            if (_cfg.skip == SkipMode::Adaptive)
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

encoding::TransferResult
DescScheme::transferBatched(const BitVec &block)
{
    encoding::TransferResult result;

    const unsigned lb = chunkLog2(_cfg.chunk_bits);
    const unsigned wires = _cfg.activeWires();
    const unsigned waves = _cfg.numWaves();
    const auto &words = block.words();
    // Each wave is a whole-word slice (batchedSupported); a single
    // wave spans the entire block, padding bits beyond the width read
    // zero and so never produce spurious chunk activity.
    const unsigned wpw = waves > 1 ? wires * _cfg.chunk_bits / 64
                                   : unsigned(words.size());

    if (_cfg.skip == SkipMode::None) {
        // Single wave: every wire carries exactly one chunk, so the
        // slowest wire is simply the maximum chunk value (+1 cycle of
        // per-chunk overhead). The per-wire last values are write-only
        // in basic mode, so the pass skips maintaining them.
        const std::uint64_t maxv = kMaxWords[lb](words.data(), wpw);
        result.cycles = 1 + (Cycle(maxv) + 1);
        result.data_flips = _cfg.numChunks();
        result.control_flips = 1 + result.cycles;
        return result;
    }

    const bool last_value = _cfg.skip == SkipMode::LastValue;

    Cycle cycles = 1; // opening pulse of wave 0
    std::uint64_t reset_flips = 1;
    for (unsigned g = 0; g < waves; g++) {
        const std::uint64_t *cur = words.data() + std::size_t(g) * wpw;
        WaveScan scan;
        if (last_value) {
            // Skip value is the previous wave of the same stream: the
            // preceding word slice of this block, or the tail of the
            // previous block for wave 0.
            const std::uint64_t *prev = g == 0
                ? _last_words.data()
                : cur - wpw;
            scan = kScanLast[lb](cur, prev, wpw);
        } else {
            scan = kScanZero[lb](cur, wpw);
        }
        const unsigned sent = scan.sent;
        result.data_flips += sent;
        result.skipped += wires - sent;
        Cycle window = Cycle(scan.maxv);
        if (window == 0)
            window = 1; // all-skipped wave: closing pulse one cycle later
        cycles += window;
        if (g + 1 < waves)
            reset_flips++; // merged close/open
        else if (sent < wires)
            reset_flips++; // final closing pulse
    }
    if (last_value) {
        std::copy_n(words.data() + std::size_t(waves - 1) * wpw, wpw,
                    _last_words.begin());
    }
    result.cycles = cycles;
    result.control_flips = reset_flips + cycles; // + sync strobe
    return result;
}

void
DescScheme::reset()
{
    std::fill(_last.begin(), _last.end(), 0);
    std::fill(_last_words.begin(), _last_words.end(), 0);
    _adaptive.reset();
}

} // namespace desc::core
