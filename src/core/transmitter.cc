#include "core/transmitter.hh"

#include <algorithm>

#include "common/contract.hh"
#include "common/trace.hh"
#include "core/chunk.hh"
#include "core/timing.hh"

namespace desc::core {

const char *
skipModeName(SkipMode mode)
{
    switch (mode) {
      case SkipMode::None:
        return "basic";
      case SkipMode::Zero:
        return "zero-skipped";
      case SkipMode::LastValue:
        return "last-value-skipped";
      case SkipMode::Adaptive:
        return "adaptive-skipped";
    }
    DESC_PANIC("bad skip mode");
}

DescTransmitter::DescTransmitter(const DescConfig &cfg)
    : _cfg(cfg.validate()), _wires(cfg.activeWires()),
      _last(cfg.activeWires(), 0),
      _adaptive(cfg.activeWires(), cfg.chunk_bits),
      _plane_words((cfg.activeWires() + 63) / 64),
      _wave_open_cycle(cfg.numWaves(), 0),
      _wave_window_of(cfg.numWaves(), 0),
      _wave_skipped_of(cfg.numWaves(), 0),
      _basic_cum(cfg.activeWires(), 0)
{
    // Upper bound on a block's cycles in either mode: the opening
    // pulse plus numWaves chunks of at most maxValue()+1 cycles each
    // on the slowest wire.
    const unsigned max_cycles =
        unsigned(1 + _cfg.numWaves() * (_cfg.maxValue() + 1));
    _sched_fire.resize(std::size_t{max_cycles} * _plane_words, 0);
    _sched_reset.resize(max_cycles, 0);
}

std::uint8_t
DescTransmitter::skipValueFor(unsigned wire) const
{
    switch (_cfg.skip) {
      case SkipMode::Zero:
        return 0;
      case SkipMode::LastValue:
        return _last[wire];
      case SkipMode::Adaptive:
        return _adaptive.best(wire);
      case SkipMode::None:
        break;
    }
    DESC_PANIC("skip value requested without value skipping");
}

std::uint64_t *
DescTransmitter::planeAt(unsigned cycle)
{
    DESC_ASSERT(cycle >= 1 && cycle <= _sched_reset.size(),
                "scheduled cycle outside the preallocated planes");
    return &_sched_fire[std::size_t{cycle - 1} * _plane_words];
}

/**
 * Basic (no-skip) schedule: the reset pulse occupies cycle 1, then
 * each wire streams its chunks back to back — a chunk's strobe lands
 * chunkCycles(v) cycles after the wire's previous strobe (or the
 * pulse). The block ends with the slowest wire's last strobe.
 */
void
DescTransmitter::scheduleBasic(const BitVec &block)
{
    const unsigned wires = _cfg.activeWires();
    const unsigned chunk_bits = _cfg.chunk_bits;
    const unsigned n = _cfg.numChunks();

    _sched_reset[0] = 1;
    std::fill(_basic_cum.begin(), _basic_cum.end(), 0u);

    BitCursor cur(block);
    unsigned wire = 0;
    unsigned window = 0;
    for (unsigned i = 0; i < n; i++) {
        std::uint64_t v = cur.next(chunk_bits);
        _basic_cum[wire] += chunkCycles(v, false, 0);
        planeAt(1 + _basic_cum[wire])[wire / 64] ^=
            std::uint64_t{1} << (wire % 64);
        if (_basic_cum[wire] > window)
            window = _basic_cum[wire];
        _last[wire] = std::uint8_t(v);
        if (++wire == wires)
            wire = 0;
    }
    _sched_len = 1 + window;
    _next_trace_wave = _cfg.numWaves(); // no wave-open trace events
}

/**
 * Value-skipped schedule: waves of one chunk per wire, each opened by
 * a (merged) reset/skip pulse; skipped chunks stay silent and the
 * final wave closes with an extra pulse only if it skipped anything.
 */
void
DescTransmitter::scheduleWaves(const BitVec &block)
{
    const unsigned wires = _cfg.activeWires();
    const unsigned waves = _cfg.numWaves();
    const unsigned chunk_bits = _cfg.chunk_bits;

    _sched_reset[0] = 1; // opening pulse of wave 0 fires in cycle 1
    BitCursor cur(block);
    unsigned open = 1; // cycle of the current wave's opening pulse
    for (unsigned g = 0; g < waves; g++) {
        unsigned window = 0;
        bool any_skipped = false;
        for (unsigned w = 0; w < wires; w++) {
            std::uint8_t v = std::uint8_t(cur.next(chunk_bits));
            std::uint8_t s = skipValueFor(w);
            if (v == s) {
                any_skipped = true;
            } else {
                unsigned c = chunkCycles(v, true, s);
                planeAt(open + c)[w / 64] ^= std::uint64_t{1} << (w % 64);
                if (c > window)
                    window = c;
            }
            _last[w] = v;
            if (_cfg.skip == SkipMode::Adaptive)
                _adaptive.update(w, v);
        }
        // An all-skipped wave still needs one cycle before the closing
        // pulse can toggle the shared wire again.
        if (window == 0)
            window = 1;
        _wave_open_cycle[g] = open;
        _wave_window_of[g] = window;
        _wave_skipped_of[g] = any_skipped;
        open += window;
        if (g + 1 < waves)
            _sched_reset[open - 1] = 1; // merged close/open pulse
        else if (any_skipped)
            _sched_reset[open - 1] = 1; // final closing pulse
    }
    _sched_len = open; // == 1 + sum of windows
    _next_trace_wave = 0;
}

void
DescTransmitter::loadBlock(const BitVec &block)
{
    DESC_ASSERT(!_busy, "loadBlock while a transfer is in flight");
    DESC_ASSERT(block.width() == _cfg.block_bits, "block width mismatch");

    DESC_TRACE_EVENT(Link, _ticks, "tx: block loaded: ", _cfg.numChunks(),
                     " chunks on ", _cfg.activeWires(), " wires, ",
                     _cfg.numWaves(), " wave(s), ",
                     skipModeName(_cfg.skip));

    // The fire planes are consumed by XOR, so clear the previously
    // used region before staging the new block's strobes.
    std::fill_n(_sched_fire.begin(),
                std::size_t{_sched_len} * _plane_words, std::uint64_t{0});
    std::fill_n(_sched_reset.begin(), _sched_len, std::uint8_t{0});
    _sched_pos = 0;

    if (_cfg.skip == SkipMode::None)
        scheduleBasic(block);
    else
        scheduleWaves(block);
    DESC_ASSERT(_sched_len <= _sched_reset.size(),
                "block schedule overflows its preallocated planes");
    _busy = true;
}

void
DescTransmitter::tick()
{
    if (!_busy)
        return;
    _ticks++;

    // The synchronization strobe toggles every cycle of an ongoing
    // transfer (half-frequency clock forwarding, Section 3.1).
    _sync_tg.fire();

    const unsigned i = ++_sched_pos; // 1-based cycle within the block
    if (_next_trace_wave < _cfg.numWaves()
        && i == _wave_open_cycle[_next_trace_wave]) {
        DESC_TRACE_EVENT(Link, _ticks, "tx: wave ", _next_trace_wave,
                         " open, window ",
                         _wave_window_of[_next_trace_wave], " cycles",
                         _wave_skipped_of[_next_trace_wave]
                             ? ", has skipped chunks" : "");
        _next_trace_wave++;
    }

    // One cycle of the whole bus: XOR the precomputed fire plane into
    // the level plane, then the two scalar control toggles.
    const std::uint64_t *fire = planeAt(i);
    std::uint64_t *lv = _wires.data.mutableWords().data();
    for (unsigned k = 0; k < _plane_words; k++)
        lv[k] ^= fire[k];
    if (_sched_reset[i - 1])
        _reset_tg.fire();
    _wires.reset_skip = _reset_tg.level();
    _wires.sync = _sync_tg.level();

    if (i == _sched_len)
        _busy = false;
}

void
DescTransmitter::reset()
{
    _reset_tg.reset();
    _sync_tg.reset();
    std::fill(_last.begin(), _last.end(), 0);
    _wires.clear();
    _busy = false;
    std::fill(_sched_fire.begin(), _sched_fire.end(), std::uint64_t{0});
    std::fill(_sched_reset.begin(), _sched_reset.end(), std::uint8_t{0});
    _sched_len = 0;
    _sched_pos = 0;
    _next_trace_wave = 0;
    _adaptive.reset();
}

} // namespace desc::core
