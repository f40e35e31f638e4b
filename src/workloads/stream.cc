#include "workloads/stream.hh"

#include <cmath>

namespace desc::workloads {

AppStream::AppStream(const AppParams &params, const ValueModel &values,
                     unsigned thread_id, unsigned core_id,
                     std::uint64_t seed)
    : _p(params), _values(values),
      _rng(seed ^ (params.seed_salt * 0x100000001b3ULL)
           ^ (std::uint64_t(thread_id) << 32)),
      _log_no_mem(std::log(1.0 - params.mem_per_inst))
{
    // Disjoint address regions: per-thread private heaps, one shared
    // region, per-core code.
    _private_base = privateBase(thread_id);
    _shared_base = sharedBase();
    _code_base = codeBase(core_id);
    _hot_base = hotBase(thread_id);
    _seq_cursor_priv = _private_base;
    _seq_cursor_shared =
        _shared_base + (Addr(thread_id) * 8192) % std::max<std::uint64_t>(
            _p.ws_shared, 1);
}

Addr
AppStream::pickAddr()
{
    // Most references hit the thread's small hot set (stack and
    // loop-local data) that lives in the L1.
    if (_rng.chance(_p.hot_frac))
        return _hot_base + _rng.below(_p.hot_bytes / 8) * 8;

    bool shared = _p.ws_shared > 0 && _rng.chance(_p.shared_frac);
    Addr base = shared ? _shared_base : _private_base;
    std::uint64_t ws = shared ? _p.ws_shared : _p.ws_private;
    Addr &cursor = shared ? _seq_cursor_shared : _seq_cursor_priv;

    if (_rng.chance(_p.seq_frac)) {
        cursor += 8;
        if (cursor >= base + ws)
            cursor = base;
        return cursor;
    }
    return base + (_rng.below(ws / 8) * 8);
}

unsigned
AppStream::nextGap(cpu::MemOp &op)
{
    // Geometric gap with success probability mem_per_inst.
    double u = _rng.uniform();
    unsigned gap = unsigned(std::log(1.0 - u) / _log_no_mem);
    if (gap > 200)
        gap = 200;

    op.addr = pickAddr();
    op.is_write = _rng.chance(_p.write_frac);
    op.store_value = op.is_write ? _values.wordAt(op.addr, _rng) : 0;

    _fetch_cursor = (_fetch_cursor + (gap + 1) * 4) % _p.code_bytes;
    return gap;
}

Addr
AppStream::fetchAddr() const
{
    return _code_base + _fetch_cursor;
}

// Region bases are staggered across cache sets: power-of-two aligned
// bases would pile every thread's hot set onto the same few L1/L2
// sets and thrash them.

Addr
AppStream::privateBase(unsigned thread_id)
{
    return (Addr{1} << 36) + Addr(thread_id) * (Addr{1} << 30)
        + Addr(thread_id) * 4099 * 64;
}

Addr
AppStream::sharedBase()
{
    return Addr{1} << 40;
}

Addr
AppStream::hotBase(unsigned thread_id)
{
    return (Addr{1} << 42) + Addr(thread_id) * (Addr{1} << 24)
        + Addr(thread_id) * 977 * 64;
}

Addr
AppStream::codeBase(unsigned core_id)
{
    return (Addr{1} << 44) + Addr(core_id) * (Addr{1} << 30);
}

} // namespace desc::workloads
