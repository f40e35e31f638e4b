#include "workloads/stream.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>

namespace desc::workloads {

/**
 * One thread's recorded op stream. Each op is one word: the address
 * in bits 0..44, the write flag in bit 47 and the gap in bits 48..63
 * (gaps are capped at 200). Store values are kept for writes only, in
 * op order. @c end is the generator state after the last op, so a
 * stream that runs past the trace resumes exactly where the recording
 * stopped.
 */
struct OpTrace
{
    std::vector<std::uint64_t> ops;
    std::vector<std::uint64_t> values;
    AppStream::GenState end;
};

namespace {

constexpr unsigned kAddrBits = 45;
constexpr std::uint64_t kAddrMask = (std::uint64_t{1} << kAddrBits) - 1;
constexpr std::uint64_t kWriteBit = std::uint64_t{1} << 47;
constexpr unsigned kGapShift = 48;
constexpr unsigned kMaxGap = 200;
static_assert(kMaxGap < (1u << (64 - kGapShift)));

/** Words a recording buffer starts with; it doubles from there. */
constexpr std::size_t kFirstWords = 512;

/** How far ahead of the replay cursor the next records are fetched. */
constexpr std::uintptr_t kPrefetchBytes = 256;

/**
 * A trace is keyed on every AppParams field by value (the address
 * model and the value model that draws the store values), the seed
 * and the thread id: the bytes of each, the name NUL-terminated. The
 * core id only moves the code region, which the consumer walks itself.
 */
using TraceKey = std::string;

TraceKey
traceKey(const AppParams &p, std::uint64_t seed, unsigned thread_id)
{
    TraceKey key;
    auto append = [&key](const auto &v) {
        if constexpr (std::is_same_v<std::decay_t<decltype(v)>,
                                     const char *>)
            key.append(v ? v : "").push_back('\0');
        else
            key.append(reinterpret_cast<const char *>(&v), sizeof(v));
    };
    forEachField(p, [&](const char *, const auto &v) { append(v); });
    append(seed);
    append(thread_id);
    return key;
}

std::size_t
bytesOf(std::size_t ops, std::size_t values)
{
    return (ops + values) * sizeof(std::uint64_t);
}

/**
 * The published traces. Invariant: published + reserved <= cap, where
 * reserved counts the capacity of the buffers recording streams hold
 * for ops not yet published.
 */
struct TraceStore
{
    std::mutex mutex;
    std::map<TraceKey, std::shared_ptr<const OpTrace>> traces;
    std::size_t published = 0;
    std::size_t reserved = 0;
    std::size_t cap = kTraceCacheCap;
};

TraceStore &
traceStore()
{
    static TraceStore store;
    return store;
}

} // namespace

AppStream::AppStream(const AppParams &params, const ValueModel &values,
                     unsigned thread_id, unsigned core_id,
                     std::uint64_t seed)
    : _p(params), _values(values), _thread_id(thread_id), _seed(seed),
      _log_no_mem(std::log(1.0 - params.mem_per_inst))
{
    _gen.rng = Rng(seed ^ (params.seed_salt * 0x100000001b3ULL)
                   ^ (std::uint64_t(thread_id) << 32));
    // Disjoint address regions: per-thread private heaps, one shared
    // region, per-core code.
    _private_base = privateBase(thread_id);
    _shared_base = sharedBase();
    _code_base = codeBase(core_id);
    _hot_base = hotBase(thread_id);
    _gen.seq_cursor_priv = _private_base;
    _gen.seq_cursor_shared =
        _shared_base + (Addr(thread_id) * 8192) % std::max<std::uint64_t>(
            _p.ws_shared, 1);

    // A trace is exact only if the store values come from the model
    // of these very parameters and every address fits its field.
    const auto key = traceKey(params, seed, thread_id);
    const Addr top = std::max({_private_base + _p.ws_private,
                               _shared_base + _p.ws_shared,
                               _hot_base + _p.hot_bytes});
    if (key != traceKey(values.params(), values.seed(), thread_id)
        || top > kAddrMask)
        return;

    auto &store = traceStore();
    {
        std::lock_guard<std::mutex> lock(store.mutex);
        auto it = store.traces.find(key);
        if (it != store.traces.end())
            _trace = it->second;
    }
    if (_trace) {
        _next = _trace->ops.data();
        _end = _next + _trace->ops.size();
        _next_value = _trace->values.data();
        _live = false;
    }
    _recording = true;
}

AppStream::AppStream(AppStream &&other) noexcept
    : _p(other._p), _values(other._values), _thread_id(other._thread_id),
      _seed(other._seed), _log_no_mem(other._log_no_mem), _gen(other._gen),
      _private_base(other._private_base), _shared_base(other._shared_base),
      _code_base(other._code_base), _hot_base(other._hot_base),
      _fetch_cursor(other._fetch_cursor), _trace(std::move(other._trace)),
      _next(std::exchange(other._next, nullptr)),
      _end(std::exchange(other._end, nullptr)),
      _next_value(std::exchange(other._next_value, nullptr)),
      _live(other._live),
      _recording(std::exchange(other._recording, false)),
      _rec_ops(std::move(other._rec_ops)),
      _rec_values(std::move(other._rec_values)),
      _reserved(std::exchange(other._reserved, 0))
{
}

AppStream::~AppStream()
{
    stopRecording();
}

Addr
AppStream::pickAddr()
{
    // Most references hit the thread's small hot set (stack and
    // loop-local data) that lives in the L1.
    Rng &rng = _gen.rng;
    if (rng.chance(_p.hot_frac))
        return _hot_base + rng.below(_p.hot_bytes / 8) * 8;

    bool shared = _p.ws_shared > 0 && rng.chance(_p.shared_frac);
    Addr base = shared ? _shared_base : _private_base;
    std::uint64_t ws = shared ? _p.ws_shared : _p.ws_private;
    Addr &cursor = shared ? _gen.seq_cursor_shared : _gen.seq_cursor_priv;

    if (rng.chance(_p.seq_frac)) {
        cursor += 8;
        if (cursor >= base + ws)
            cursor = base;
        return cursor;
    }
    return base + (rng.below(ws / 8) * 8);
}

unsigned
AppStream::generate(cpu::MemOp &op)
{
    if (!_live) {
        _gen = _trace->end;
        _live = true;
    }
    // Geometric gap with success probability mem_per_inst.
    double u = _gen.rng.uniform();
    unsigned gap = unsigned(std::log(1.0 - u) / _log_no_mem);
    if (gap > kMaxGap)
        gap = kMaxGap;

    op.addr = pickAddr();
    op.is_write = _gen.rng.chance(_p.write_frac);
    op.store_value = op.is_write ? _values.wordAt(op.addr, _gen.rng) : 0;
    if (_recording)
        record(gap, op);
    return gap;
}

unsigned
AppStream::nextGap(cpu::MemOp &op)
{
    unsigned gap;
    if (_next != _end) {
        const std::uint64_t rec = *_next++;
        // Many streams interleave on one core; fetch each one's next
        // records before its turn comes round again.
        __builtin_prefetch(reinterpret_cast<const void *>(
            reinterpret_cast<std::uintptr_t>(_next) + kPrefetchBytes));
        gap = unsigned(rec >> kGapShift);
        op.addr = rec & kAddrMask;
        op.is_write = (rec & kWriteBit) != 0;
        op.store_value = op.is_write ? *_next_value++ : 0;
    } else {
        gap = generate(op);
    }
    _fetch_cursor = (_fetch_cursor + (gap + 1) * 4) % _p.code_bytes;
    return gap;
}

void
AppStream::record(unsigned gap, const cpu::MemOp &op)
{
    if ((_rec_ops.size() == _rec_ops.capacity() && !grow(_rec_ops))
        || (op.is_write && _rec_values.size() == _rec_values.capacity()
            && !grow(_rec_values))) {
        stopRecording();
        return;
    }
    _rec_ops.push_back(op.addr | (op.is_write ? kWriteBit : 0)
                       | (std::uint64_t(gap) << kGapShift));
    if (op.is_write)
        _rec_values.push_back(op.store_value);
}

bool
AppStream::grow(std::vector<std::uint64_t> &buf)
{
    // Take the new capacity from the cap before allocating it, so the
    // buffers of every recording stream stay within the cap too.
    const std::size_t more = std::max(buf.capacity(), kFirstWords);
    const std::size_t bytes = bytesOf(more, 0);
    {
        auto &store = traceStore();
        std::lock_guard<std::mutex> lock(store.mutex);
        if (store.published + store.reserved + bytes > store.cap)
            return false;
        store.reserved += bytes;
    }
    _reserved += bytes;
    buf.reserve(buf.capacity() + more);
    return true;
}

void
AppStream::stopRecording()
{
    _recording = false;
    std::vector<std::uint64_t>().swap(_rec_ops);
    std::vector<std::uint64_t>().swap(_rec_values);
    if (_reserved == 0)
        return;
    auto &store = traceStore();
    std::lock_guard<std::mutex> lock(store.mutex);
    store.reserved -= _reserved;
    _reserved = 0;
}

void
AppStream::publishTrace()
{
    if (!_recording || _rec_ops.empty()) {
        stopRecording();
        return;
    }
    auto trace = std::make_shared<OpTrace>();
    if (_trace) {
        trace->ops.reserve(_trace->ops.size() + _rec_ops.size());
        trace->values.reserve(_trace->values.size() + _rec_values.size());
        trace->ops = _trace->ops;
        trace->values = _trace->values;
    }
    trace->ops.insert(trace->ops.end(), _rec_ops.begin(), _rec_ops.end());
    trace->values.insert(trace->values.end(), _rec_values.begin(),
                         _rec_values.end());
    trace->end = _gen;
    const std::size_t bytes = bytesOf(trace->ops.size(),
                                      trace->values.size());
    stopRecording();

    auto key = traceKey(_p, _seed, _thread_id);
    std::shared_ptr<const OpTrace> replaced;
    auto &store = traceStore();
    std::lock_guard<std::mutex> lock(store.mutex);
    auto it = store.traces.find(key);
    const bool have = it != store.traces.end();
    if (have && it->second->ops.size() >= trace->ops.size())
        return;
    const std::size_t old =
        have ? bytesOf(it->second->ops.size(), it->second->values.size())
             : 0;
    if (store.published - old + bytes + store.reserved > store.cap)
        return;
    store.published = store.published - old + bytes;
    if (have)
        replaced = std::exchange(it->second, std::move(trace));
    else
        store.traces.emplace(std::move(key), std::move(trace));
}

std::size_t
AppStream::tracedOps() const
{
    return _trace ? _trace->ops.size() : 0;
}

Addr
AppStream::fetchAddr() const
{
    return _code_base + _fetch_cursor;
}

void
resetTraceCache(std::size_t cap_bytes)
{
    std::map<TraceKey, std::shared_ptr<const OpTrace>> dropped;
    auto &store = traceStore();
    std::lock_guard<std::mutex> lock(store.mutex);
    dropped.swap(store.traces);
    store.published = 0;
    store.cap = cap_bytes;
}

std::size_t
traceCacheBytes()
{
    auto &store = traceStore();
    std::lock_guard<std::mutex> lock(store.mutex);
    return store.published;
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
