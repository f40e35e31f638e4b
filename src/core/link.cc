#include "core/link.hh"

#include "common/contract.hh"
#include "common/prof.hh"
#include "common/swar.hh"
#include "common/trace.hh"

namespace desc::core {

DescLink::DescLink(const DescConfig &cfg)
    : _cfg(cfg), _tx(cfg), _rx(cfg), _cur(cfg.activeWires()),
      _prev(cfg.activeWires())
{
}

encoding::TransferResult
DescLink::transferBlock(const BitVec &block, BitVec *received)
{
    DESC_PROF_SCOPE(LinkTicked);
    encoding::TransferResult result;
    _tx.loadBlock(block);

    const std::size_t nwords = _cur.data.words().size();
    const Cycle guard = 64 + 2ull * _cfg.numChunks()
        * (std::uint64_t{1} << _cfg.chunk_bits);

    while (_tx.busy()) {
        _tx.tick();
        _cur = _tx.wires(); // copy-assign reuses _cur's storage
        if (_fault)
            _fault(_cycle, _cur);
        if (_observer)
            _observer(_cycle, _cur);

        // Count transitions against the previous cycle's levels:
        // popcounts of the level XORs.
        const std::uint64_t *cur = _cur.data.words().data();
        const std::uint64_t *prev = _prev.data.words().data();
        for (std::size_t k = 0; k < nwords; k++)
            result.data_flips += swar::popcount64(cur[k] ^ prev[k]);
        if (_cur.reset_skip != _prev.reset_skip)
            result.control_flips++;
        if (_cur.sync != _prev.sync)
            result.control_flips++;

        _rx.observe(_cur);
        // The current levels become the next cycle's reference; the
        // swap trades buffers instead of copying the bundle again.
        std::swap(_cur.data, _prev.data);
        _prev.reset_skip = _cur.reset_skip;
        _prev.sync = _cur.sync;
        result.cycles++;
        _cycle++;
        DESC_ASSERT(result.cycles < guard, "transfer did not terminate");
    }

    DESC_ASSERT(_rx.blockReady(), "receiver incomplete after transfer");
    DESC_PROF_CYCLES(LinkTicked, result.cycles);
    result.skipped = _cfg.numChunks() - result.data_flips;
    DESC_TRACE_EVENT(Link, _cycle, "block transferred: ",
                     result.cycles, " cycles, ", result.data_flips,
                     " data + ", result.control_flips,
                     " ctrl flips, ", result.skipped,
                     " skipped chunks (", skipModeName(_cfg.skip), ")");
    if (received)
        *received = _rx.takeBlock();
    else
        _rx.discardBlock();
    return result;
}

void
DescLink::reset()
{
    _tx.reset();
    _rx.reset();
    _cur.clear();
    _prev.clear();
    _cycle = 0;
}

} // namespace desc::core
