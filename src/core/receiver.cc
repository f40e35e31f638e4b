#include "core/receiver.hh"

#include <algorithm>
#include <bit>

#include "common/contract.hh"
#include "common/trace.hh"
#include "core/chunk.hh"
#include "core/timing.hh"

namespace desc::core {

DescReceiver::DescReceiver(const DescConfig &cfg)
    : _cfg(cfg.validate()), _data_bank(cfg.activeWires()),
      _toggles(cfg.activeWires()),
      _chunks(cfg.numChunks(), 0),
      _last(cfg.activeWires(), 0),
      _adaptive(cfg.activeWires(), cfg.chunk_bits),
      _last_strobe(cfg.activeWires(), 0),
      _next_slot(cfg.activeWires(), 0),
      _got(cfg.activeWires()),
      _skipv(cfg.activeWires(), 0)
{
}

std::uint8_t
DescReceiver::skipValueFor(unsigned wire) const
{
    switch (_cfg.skip) {
      case SkipMode::Zero:
        return 0;
      case SkipMode::Adaptive:
        return _adaptive.best(wire);
      default:
        return _last[wire];
    }
}

void
DescReceiver::openWave()
{
    _wave_open = true;
    _elapsed = 0;
    _wave_got = 0;
    _got.clear();
    unsigned wires = _cfg.activeWires();
    for (unsigned w = 0; w < wires; w++)
        _skipv[w] = skipValueFor(w);
}

void
DescReceiver::finalizeWave()
{
    unsigned wires = _cfg.activeWires();
    for (unsigned w = 0; w < wires; w++) {
        unsigned idx = _wave * wires + w;
        if (!_got.bit(w))
            _chunks[idx] = _skipv[w];
        _last[w] = _chunks[idx];
        if (_cfg.skip == SkipMode::Adaptive)
            _adaptive.update(w, _chunks[idx]);
    }
    _wave_open = false;
    _wave++;
    DESC_TRACE_EVENT(Link, _ticks, "rx: wave ", _wave - 1,
                     " finalized (", _wave_got, "/", wires,
                     " strobed, rest skipped)");
    if (_wave == _cfg.numWaves()) {
        _ready = true;
        DESC_TRACE_EVENT(Link, _ticks, "rx: block ready (", _wave,
                         " waves)");
    }
}

void
DescReceiver::observe(const WireBundle &wires_in)
{
    unsigned wires = _cfg.activeWires();
    DESC_ASSERT(wires_in.data.width() == wires, "wire count mismatch");
    _ticks++;

    _sync_td.sample(wires_in.sync);

    // Sample every detector first so levels stay coherent even on
    // cycles we otherwise ignore: one plane XOR yields the toggle
    // mask for the whole bus.
    _data_bank.sample(wires_in.data, _toggles);
    bool reset_toggled = _reset_td.sample(wires_in.reset_skip);

    const std::uint64_t *toggled = _toggles.words().data();
    const unsigned nwords = unsigned(_toggles.words().size());

    if (_cfg.skip == SkipMode::None) {
        if (reset_toggled) {
            _in_block = true;
            _received = 0;
            _t_in_block = 0;
            std::fill(_last_strobe.begin(), _last_strobe.end(), 0u);
            std::fill(_next_slot.begin(), _next_slot.end(), 0u);
            return;
        }
        if (!_in_block)
            return;
        _t_in_block++;
        for (unsigned k = 0; k < nwords; k++) {
            std::uint64_t m = toggled[k];
            while (m) {
                unsigned w = k * 64 + unsigned(std::countr_zero(m));
                m &= m - 1;
                std::uint64_t v = decodeCycles(
                    _t_in_block - _last_strobe[w], false, 0);
                DESC_ASSERT(v <= _cfg.maxValue(),
                            "decoded value out of range");
                DESC_ASSERT(_next_slot[w] < _cfg.numWaves(),
                            "more strobes than chunks on wire ", w);
                _chunks[_next_slot[w] * wires + w] = std::uint8_t(v);
                _last[w] = std::uint8_t(v);
                _next_slot[w]++;
                _last_strobe[w] = _t_in_block;
                _received++;
            }
        }
        if (_received == _cfg.numChunks()) {
            _in_block = false;
            _ready = true;
            DESC_TRACE_EVENT(Link, _ticks, "rx: block ready (",
                             _received, " chunks, basic mode)");
        }
        return;
    }

    // Value-skipped protocol: waves of one chunk per wire.
    if (_wave_open) {
        _elapsed++;
        for (unsigned k = 0; k < nwords; k++) {
            std::uint64_t m = toggled[k];
            while (m) {
                unsigned w = k * 64 + unsigned(std::countr_zero(m));
                m &= m - 1;
                DESC_ASSERT(!_got.bit(w),
                            "second strobe within a wave on wire ", w);
                std::uint64_t v = decodeCycles(_elapsed, true, _skipv[w]);
                DESC_ASSERT(v <= _cfg.maxValue(),
                            "decoded value out of range");
                _chunks[_wave * wires + w] = std::uint8_t(v);
                _got.setBit(w, true);
                _wave_got++;
            }
        }
        // The final wave sends no closing pulse when nothing was
        // skipped; it completes with its last data strobe.
        if (_wave + 1 == _cfg.numWaves() && _wave_got == wires)
            finalizeWave();
    }

    if (reset_toggled) {
        if (_wave_open) {
            // Closing pulse: silent wires take their skip value; the
            // same pulse opens the next wave if one remains.
            finalizeWave();
            if (_wave < _cfg.numWaves())
                openWave();
        } else {
            // Opening pulse of a new block.
            DESC_ASSERT(!_ready, "new block before previous was taken");
            _wave = 0;
            openWave();
        }
    }
}

BitVec
DescReceiver::takeBlock()
{
    DESC_ASSERT(_ready, "takeBlock with no block ready");
    _ready = false;
    return joinChunks(_chunks, _cfg.chunk_bits, _cfg.block_bits);
}

void
DescReceiver::reset()
{
    _data_bank.reset();
    _reset_td.reset();
    _sync_td.reset();
    std::fill(_chunks.begin(), _chunks.end(), 0);
    std::fill(_last.begin(), _last.end(), 0);
    _ready = false;
    _in_block = false;
    _t_in_block = 0;
    std::fill(_last_strobe.begin(), _last_strobe.end(), 0u);
    std::fill(_next_slot.begin(), _next_slot.end(), 0u);
    _received = 0;
    _wave_open = false;
    _wave = 0;
    _elapsed = 0;
    _got.clear();
    std::fill(_skipv.begin(), _skipv.end(), 0);
    _wave_got = 0;
    _adaptive.reset();
}

} // namespace desc::core
