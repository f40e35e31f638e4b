#include "sim/runcache.hh"

#include <bit>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/env.hh"
#include "common/log.hh"
#include "common/trace.hh"
#include "sim/statdump.hh"

namespace desc::sim {

namespace {

/** Bumped whenever the hash input or file layout changes; stale
 *  entries then key differently and are never loaded. */
constexpr std::uint32_t kFormatVersion = 2;

constexpr std::uint64_t kMagic = 0x4445534352554e31ULL; // "DESCRUN1"

/** Longest histogram or widest bus a well-formed entry holds. */
constexpr std::uint64_t kMaxLength = 1u << 20;

// --- canonical byte stream ---------------------------------------
//
// put() and get() code one field of a record's list (forEachField in
// system.hh and experiment.hh) by its type: integers, bools and enums
// as one little-endian word, doubles as their bits, C strings as a
// length and the bytes, and the stat objects as their parts.

/** Append-only byte stream used for both hashing and serialization,
 *  so the two can never disagree on field order. */
class Writer
{
  public:
    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; i++)
            _buf.push_back(char((v >> (8 * i)) & 0xff));
    }

    template <typename T>
    void
    put(const T &v)
    {
        if constexpr (std::is_same_v<T, double>) {
            u64(std::bit_cast<std::uint64_t>(v));
        } else if constexpr (std::is_same_v<T, const char *>) {
            std::size_t n = v ? std::strlen(v) : 0;
            u64(n);
            _buf.append(v, n);
        } else {
            u64(std::uint64_t(v));
        }
    }

    void put(const Counter &c) { u64(c.value()); }

    void
    put(const Average &a)
    {
        put(a.sum());
        put(a.min());
        put(a.max());
        u64(a.count());
    }

    void
    put(const Histogram &h)
    {
        u64(h.numBins());
        for (unsigned i = 0; i < h.numBins(); i++)
            u64(h.bin(i));
        u64(h.total());
        u64(h.overflow());
    }

    void
    put(const core::ChunkStats &cs)
    {
        u64(cs.chunkBits());
        u64(cs.wires());
        put(cs.histogram());
        u64(cs.matches());
        u64(cs.matchCandidates());
    }

    const std::string &bytes() const { return _buf; }

  private:
    std::string _buf;
};

/** Reads what Writer wrote. Any short read or malformed field fails
 *  the stream; the fields after it then read as zero. */
class Reader
{
  public:
    explicit Reader(std::string_view bytes) : _buf(bytes) {}

    std::uint64_t
    u64()
    {
        if (_pos + 8 > _buf.size()) {
            _ok = false;
            return 0;
        }
        std::uint64_t v = 0;
        for (int i = 0; i < 8; i++)
            v |= std::uint64_t(std::uint8_t(_buf[_pos + i])) << (8 * i);
        _pos += 8;
        return v;
    }

    template <typename T>
    void
    get(T &v)
    {
        if constexpr (std::is_same_v<T, double>)
            v = std::bit_cast<double>(u64());
        else
            v = T(u64());
    }

    void
    get(Counter &c)
    {
        c.reset();
        c.inc(u64());
    }

    void
    get(Average &a)
    {
        double sum, min, max;
        get(sum);
        get(min);
        get(max);
        a.restore(sum, min, max, u64());
    }

    void
    get(Histogram &h)
    {
        std::uint64_t n = u64();
        if (n > kMaxLength) { // bail before allocating
            _ok = false;
            return;
        }
        std::vector<std::uint64_t> bins(n);
        for (auto &b : bins)
            b = u64();
        std::uint64_t total = u64();
        h = Histogram{unsigned(n)};
        h.restore(std::move(bins), total, u64());
    }

    void
    get(core::ChunkStats &cs)
    {
        std::uint64_t chunk_bits = u64();
        std::uint64_t wires = u64();
        Histogram hist;
        get(hist);
        std::uint64_t matches = u64();
        std::uint64_t candidates = u64();
        // ChunkStats takes 1, 2, 4 or 8-bit chunks, a bin per value.
        if (chunk_bits > 8 || !std::has_single_bit(chunk_bits)
            || hist.numBins() != (1u << chunk_bits) || wires < 1
            || wires > kMaxLength)
            _ok = false;
        if (!_ok)
            return;
        cs = core::ChunkStats(unsigned(chunk_bits), unsigned(wires));
        cs.restore(std::move(hist), matches, candidates);
    }

    bool atEnd() const { return _ok && _pos == _buf.size(); }

  private:
    std::string_view _buf;
    std::size_t _pos = 0;
    bool _ok = true;
};

/** @p key as 16 hex digits, as entry names and run labels show it. */
std::string
hex16(std::uint64_t key)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)key);
    return buf;
}

/** FNV-1a: the config hash, and each entry's trailing checksum. */
std::uint64_t
fnv1a(std::string_view bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : bytes) {
        h ^= std::uint8_t(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/**
 * Why an entry file's @p bytes do not hold the run stored under
 * @p key, or nullptr when they do and @p run now holds it. An entry
 * is the magic, the format version, the key, the run's fields and
 * the FNV-1a checksum of all of those.
 */
const char *
decodeEntry(std::string_view bytes, std::uint64_t key, AppRun &run)
{
    if (bytes.size() < 4 * 8)
        return "truncated";
    std::size_t body = bytes.size() - 8;
    bool sum_ok = Reader(bytes.substr(body)).u64()
        == fnv1a(bytes.substr(0, body));
    Reader r(bytes.substr(0, body));
    if (r.u64() != kMagic)
        return "not a run-cache entry";
    if (r.u64() != kFormatVersion)
        return "another format version";
    if (r.u64() != key)
        return "stored under another key";
    if (!sum_ok)
        return "checksum mismatch";
    forEachField(run, [&r](const char *, const char *, auto &v) {
        r.get(v);
    });
    return r.atEnd() ? nullptr : "malformed fields";
}

// --- process-wide state ------------------------------------------

std::mutex &
stateMutex()
{
    static std::mutex m;
    return m;
}

RunStats &
mutableStats()
{
    static RunStats stats;
    return stats;
}

// Resolved at startup, like DESC_STATS_EVERY: a malformed value
// must fail before a pool worker starts a run.
const bool g_cache_on = env::boolOr(env::Var::SimCache, true);

} // namespace

std::uint64_t
configHash(const SystemConfig &cfg)
{
    // The format version salts the key.
    Writer w;
    w.u64(kFormatVersion);
    forEachField(cfg, [&w](const char *, const auto &v) { w.put(v); });
    return fnv1a(w.bytes());
}

std::string
runLabel(const SystemConfig &cfg, std::uint64_t key)
{
    return detail::concat(cfg.app.name, "/",
                          shortSchemeName(cfg.l2.scheme), "#", hex16(key));
}

RunCache::RunCache(std::string dir) : _dir(std::move(dir))
{
    if (_dir.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(_dir, ec);
    if (ec)
        DESC_FATAL("cannot create ", env::name(env::Var::SimCacheDir),
                   "=\"", _dir, "\": ", ec.message());
}

std::string
RunCache::path(std::uint64_t key) const
{
    return _dir + "/" + hex16(key) + ".run";
}

std::optional<AppRun>
RunCache::load(std::uint64_t key) const
{
    if (!enabled())
        return std::nullopt;

    namespace fs = std::filesystem;
    std::error_code ec;
    const fs::file_type type = fs::status(path(key), ec).type();
    if (type == fs::file_type::not_found)
        return std::nullopt; // absent: a plain miss
    // Only a regular file is opened: reading a directory throws.
    std::ifstream in;
    if (type == fs::file_type::regular)
        in.open(path(key), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    AppRun run;
    const char *why = !in.is_open() || (!in.good() && !in.eof())
        ? "unreadable"
        : decodeEntry(bytes, key, run);
    if (!why)
        return run;
    // The caller simulates the point again and store() overwrites
    // the entry.
    warnOnce(path(key),
             detail::concat("corrupt run-cache entry \"", path(key),
                            "\" (", why, "): ignored, simulating again"));
    return std::nullopt;
}

bool
RunCache::store(std::uint64_t key, const AppRun &run) const
{
    if (!enabled())
        return false;

    Writer w;
    w.u64(kMagic);
    w.u64(kFormatVersion);
    w.u64(key);
    forEachField(run, [&w](const char *, const char *, const auto &v) {
        w.put(v);
    });
    w.u64(fnv1a(w.bytes()));

    // Write to a private temp file, then atomically rename into
    // place so concurrent workers (or processes) never observe a
    // partial entry.
    auto tid = std::hash<std::thread::id>{}(std::this_thread::get_id());
    std::string tmp = path(key) + ".tmp"
        + std::to_string((unsigned long long)tid);
    std::string why;
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        out.write(w.bytes().data(),
                  std::streamsize(w.bytes().size()));
        out.close();
        if (!out)
            why = "cannot write " + tmp;
    }
    std::error_code ec;
    if (why.empty()) {
        std::filesystem::rename(tmp, path(key), ec);
        if (!ec)
            return true;
        why = ec.message();
    }
    // The run itself is fine; it just is not cached.
    std::filesystem::remove(tmp, ec);
    warnOnce("store " + path(key),
             detail::concat("cannot store run-cache entry \"", path(key),
                            "\" (", why, "): not cached"));
    return false;
}

namespace {

/** The global cache slot, guarded by stateMutex(); empty until the
 *  first run or setGlobalRunCacheDir(). */
std::optional<RunCache> &
cacheSlot()
{
    static std::optional<RunCache> slot;
    return slot;
}

} // namespace

RunCache
globalRunCache()
{
    std::lock_guard<std::mutex> lock(stateMutex());
    std::optional<RunCache> &slot = cacheSlot();
    if (!slot)
        slot = RunCache(g_cache_on ? env::stringOr(env::Var::SimCacheDir,
                                                   ".desc-runcache")
                                   : "");
    return *slot;
}

void
setGlobalRunCacheDir(const std::string &dir)
{
    std::lock_guard<std::mutex> lock(stateMutex());
    cacheSlot() = RunCache(dir);
}

RunStats
runStats()
{
    std::lock_guard<std::mutex> lock(stateMutex());
    return mutableStats();
}

std::string
runSummaryLine()
{
    RunStats s = runStats();
    std::string line = detail::concat(
        "[runner] ", s.jobs.value(), " points: ", s.simulated.value(),
        " simulated, ", s.cache_hits.value(), " cached (avg sim ",
        s.sim_seconds.count() ? s.sim_seconds.mean() : 0.0, "s)");
    if (s.queue_seconds.count())
        line += detail::concat(", avg queue wait ",
                               s.queue_seconds.mean(), "s");
    return line;
}

void
recordQueueWait(double seconds)
{
    std::lock_guard<std::mutex> lock(stateMutex());
    mutableStats().queue_seconds.sample(seconds);
}

AppRun
runAppCached(const SystemConfig &scaled_cfg)
{
    std::uint64_t key = configHash(scaled_cfg);

    // The cache handle is a snapshot; the file I/O and the
    // simulation itself run unlocked.
    const RunCache cache = globalRunCache();
    {
        std::lock_guard<std::mutex> lock(stateMutex());
        mutableStats().jobs.inc();
    }

    auto start = std::chrono::steady_clock::now();
    auto elapsed = [&start]() {
        return std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start).count();
    };

    if (auto cached = cache.load(key)) {
        double seconds = elapsed();
        {
            std::lock_guard<std::mutex> lock(stateMutex());
            mutableStats().cache_hits.inc();
            mutableStats().load_seconds.sample(seconds);
        }
        DESC_TRACE_HOST(Runner, "cache hit: ", runLabel(scaled_cfg, key));
        recordRunStats(scaled_cfg, *cached, key);
        return *cached;
    }

    DESC_TRACE_HOST(Runner, "cache miss: ", runLabel(scaled_cfg, key),
                    ", simulating");
    AppRun run = runScaledApp(scaled_cfg);
    double seconds = elapsed();

    const bool stored = cache.store(key, run);
    {
        std::lock_guard<std::mutex> lock(stateMutex());
        auto &stats = mutableStats();
        stats.simulated.inc();
        stats.sim_seconds.sample(seconds);
        if (stored)
            stats.cache_stores.inc();
    }
    DESC_TRACE_HOST(Runner, "simulated ", runLabel(scaled_cfg, key),
                    " in ", seconds, "s");
    recordRunStats(scaled_cfg, run, key);
    return run;
}

} // namespace desc::sim
