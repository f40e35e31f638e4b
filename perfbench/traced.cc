/**
 * @file
 * The traced run: per-layer host-time attribution from outside src/.
 *
 * Spans are recorded only by this file, around calls into each layer's
 * public functions. runSystem, the energy accounting and configHash
 * are timed in place on every point. The layers that run only inside
 * runSystem (workload streams and value synthesis, the cache
 * hierarchy, the transfer schemes, SECDED, DDR3) are replayed on the
 * point's own inputs — same app, seed, scheme and geometry — to get a
 * host rate, which is multiplied by the point's simulated operation
 * count. Whatever runSystem time the replays do not explain is
 * reported as sim.unattributed_s, never absorbed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "common/prof.hh"
#include "core/descscheme.hh"
#include "core/factory.hh"
#include "ecc/blockcodec.hh"
#include "encoding/dzc.hh"
#include "sim/runcache.hh"
#include "sim/runner.hh"
#include "sim/statdump.hh"
#include "workloads/backing.hh"
#include "workloads/stream.hh"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

// Replay sample sizes per point for the layers whose cost per call
// does not depend on history. The cache replay instead runs the
// point's whole op stream: its cost per access depends on how warm
// the L1s are, so a short sample would overstate it.
constexpr std::size_t kStreamOps = 20'000;
constexpr std::size_t kBlocks = 512;
constexpr std::size_t kDramOps = 1'024;
constexpr unsigned kFetchInterval = 8; //!< insts per I-cache access

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - kEpoch)
        .count();
}

/** Prevents the compiler from discarding replayed work. */
volatile std::uint64_t g_sink = 0;

struct Span
{
    const char *name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1; //!< index in the same log; -1 for a root
    std::int32_t point = -1;  //!< workload point index; -1 for none
};

/** One thread's spans, kept in memory until the run ends. */
class SpanLog
{
  public:
    explicit SpanLog(unsigned tid) : _tid(tid) {}

    void
    open(const char *name, int point)
    {
        Span s;
        s.name = name;
        s.point = point;
        s.parent = _stack.empty() ? -1 : std::int32_t(_stack.back());
        _spans.push_back(s);
        _stack.push_back(_spans.size() - 1);
        _spans.back().start_ns = nowNs();
    }

    /** Close the innermost span; returns its duration in ns. */
    double
    close()
    {
        std::int64_t end = nowNs();
        Span &s = _spans[_stack.back()];
        _stack.pop_back();
        s.end_ns = end;
        return double(s.end_ns - s.start_ns);
    }

    unsigned tid() const { return _tid; }
    const std::vector<Span> &spans() const { return _spans; }

  private:
    unsigned _tid;
    std::vector<Span> _spans;
    std::vector<std::size_t> _stack;
};

/** RAII span; end() closes it early and returns its duration. */
class SpanScope
{
  public:
    SpanScope(SpanLog &log, const char *name, int point) : _log(log)
    {
        _log.open(name, point);
    }

    ~SpanScope()
    {
        if (_open)
            _log.close();
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    /** Close now; returns the duration in ns. */
    double
    end()
    {
        _open = false;
        return _log.close();
    }

  private:
    SpanLog &_log;
    bool _open = true;
};

/** Seconds per (span name, point) summed over every log. */
class SpanTotals
{
  public:
    explicit SpanTotals(const std::vector<SpanLog> &logs)
    {
        for (const auto &log : logs) {
            for (const auto &s : log.spans())
                _ns[{s.name, s.point}] += double(s.end_ns - s.start_ns);
        }
    }

    double
    seconds(const char *name, int point) const
    {
        auto it = _ns.find({name, point});
        return it == _ns.end() ? 0.0 : it->second * 1e-9;
    }

  private:
    std::map<std::pair<std::string, int>, double> _ns;
};

void
writeChromeTrace(const std::vector<SpanLog> &logs, const std::string &path)
{
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                     path.c_str());
        return;
    }
    // Span ids are unique across threads: tid * 1e7 + index.
    auto gid = [](unsigned tid, std::int64_t idx) {
        return std::int64_t(tid) * 10'000'000 + idx;
    };
    os << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
    bool first = true;
    for (const auto &log : logs) {
        const auto &spans = log.spans();
        for (std::size_t i = 0; i < spans.size(); i++) {
            const Span &s = spans[i];
            char buf[512];
            std::snprintf(
                buf, sizeof(buf),
                "%s\n{\"name\": \"%s\", \"cat\": \"perfbench\", "
                "\"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %lld, "
                "\"parent\": %lld, \"point\": %d}}",
                first ? "" : ",", s.name, log.tid(), double(s.start_ns) / 1e3,
                double(s.end_ns - s.start_ns) / 1e3,
                (long long)gid(log.tid(), std::int64_t(i)),
                (long long)(s.parent < 0 ? -1 : gid(log.tid(), s.parent)),
                s.point);
            os << buf;
            first = false;
        }
    }
    os << "\n]}\n";
}

/** Counts backing-store fetches on their way to the real store. */
class CountingStore : public cache::BackingStore
{
  public:
    CountingStore(const workloads::AppParams &app, std::uint64_t seed)
        : _inner(app, seed)
    {
    }

    const cache::Block512 &
    fetch(Addr block_addr) override
    {
        fetches++;
        return _inner.fetch(block_addr);
    }

    void
    store(Addr block_addr, const cache::Block512 &data) override
    {
        _inner.store(block_addr, data);
    }

    std::uint64_t fetches = 0;

  private:
    workloads::ValueBackingStore _inner;
};

/** Same functional L2 warmup as sim::runSystem performs. */
void
prefillLikeRunSystem(cache::MemHierarchy &mem, const sim::SystemConfig &cfg,
                     unsigned threads)
{
    std::uint64_t budget =
        cfg.l2.org.capacity_bytes / cfg.l2.org.block_bytes * 7 / 10;
    for (unsigned t = 0; t < threads && budget > 0; t++) {
        Addr base = workloads::AppStream::hotBase(t);
        for (Addr a = 0; a < cfg.app.hot_bytes && budget > 0;
             a += 64, budget--)
            mem.prefill(base + a);
    }
    std::uint64_t shared =
        std::min<std::uint64_t>(cfg.app.ws_shared / 64, budget / 2);
    for (Addr a = 0; a < shared; a++)
        mem.prefill(workloads::AppStream::sharedBase() + a * 64);
    budget -= shared;
    std::uint64_t priv =
        std::min<std::uint64_t>(cfg.app.ws_private / 64, budget / threads);
    for (unsigned t = 0; t < threads; t++) {
        Addr base = workloads::AppStream::privateBase(t);
        for (Addr a = 0; a < priv; a++)
            mem.prefill(base + a * 64);
    }
}

struct CoreOp
{
    unsigned core;
    Addr addr;
    bool is_write;
    bool ifetch;
    std::uint64_t value;
};

/** Host rates of one point's layers, from its replays. */
struct Rates
{
    double stream_ns = 0;  //!< per AppStream::nextGap
    double backing_ns = 0; //!< per ValueBackingStore::fetch
    double enc_ns = 0;     //!< per TransferScheme::transfer
    double ecc_ns = 0;     //!< per BlockCodec::encodeInto (0: ECC off)
    double dram_ns = 0;    //!< per DramSystem::access
    double cache_ns = 0;   //!< per MemHierarchy::access, whole replay
    double cache_self_ns = 0; //!< same, minus the layers it invoked
    double fetch_per_l2_request = 0;
    std::uint64_t row_hits = 0, row_accesses = 0;
    bool batched = false;
};

bool
usesBatchedPath(const encoding::TransferScheme &s)
{
    if (auto *d = dynamic_cast<const core::DescScheme *>(&s))
        return d->usesBatchedPath();
    if (auto *z = dynamic_cast<const encoding::DynamicZeroScheme *>(&s))
        return z->usesBatchedPath();
    return false;
}

Rates
replayPoint(const sim::SystemConfig &cfg, int point, SpanLog &log)
{
    Rates r;
    SpanScope whole(log, "replay", point);
    const bool ooo = cfg.cpu == sim::CpuKind::OutOfOrder;
    const unsigned cores = ooo ? 1 : cfg.cores;
    const unsigned threads = ooo ? 1 : cfg.cores * cfg.threads_per_core;
    workloads::ValueModel values(cfg.app, cfg.seed);

    {
        workloads::AppStream st(cfg.app, values, 0, 0, cfg.seed);
        cpu::MemOp op;
        std::uint64_t sink = 0;
        SpanScope s(log, "workloads.stream", point);
        for (std::size_t i = 0; i < kStreamOps; i++)
            sink += st.nextGap(op) + op.addr;
        r.stream_ns = s.end() / double(kStreamOps);
        g_sink = g_sink + sink;
    }

    // The point's core-side op stream: every thread's whole budget,
    // round-robin over the threads, with an I-fetch every
    // kFetchInterval instructions as the cores do.
    std::vector<CoreOp> ops;
    {
        const std::uint64_t budget = ooo
            ? cfg.insts_per_thread * cfg.threads_per_core
            : cfg.insts_per_thread;
        std::vector<workloads::AppStream> streams;
        streams.reserve(threads);
        for (unsigned t = 0; t < threads; t++)
            streams.emplace_back(cfg.app, values, t,
                                 ooo ? 0 : t / cfg.threads_per_core,
                                 cfg.seed);
        std::vector<std::uint64_t> retired(threads, 0);
        std::vector<unsigned> since(threads, kFetchInterval);
        for (bool more = true; more;) {
            more = false;
            for (unsigned t = 0; t < threads; t++) {
                if (retired[t] >= budget)
                    continue;
                more = true;
                unsigned core = ooo ? 0 : t / cfg.threads_per_core;
                if (since[t] >= kFetchInterval) {
                    ops.push_back(
                        {core, streams[t].fetchAddr(), false, true, 0});
                    since[t] = 0;
                }
                cpu::MemOp op;
                unsigned insts = streams[t].nextGap(op) + 1;
                retired[t] += insts;
                since[t] += insts;
                ops.push_back({core, op.addr, op.is_write, false,
                               op.store_value});
            }
        }
    }
    std::vector<const CoreOp *> data_ops;
    for (const auto &op : ops) {
        if (!op.ifetch)
            data_ops.push_back(&op);
    }
    auto data_block = [&data_ops](std::size_t i) {
        return data_ops[i % data_ops.size()]->addr & ~Addr{63};
    };

    std::vector<cache::Block512> blocks;
    {
        workloads::ValueBackingStore store(cfg.app, cfg.seed);
        std::uint64_t sink = 0;
        SpanScope s(log, "workloads.backing", point);
        for (std::size_t i = 0; i < kBlocks; i++)
            sink += store.fetch(data_block(i))[0];
        r.backing_ns = s.end() / double(kBlocks);
        g_sink = g_sink + sink;
        for (std::size_t i = 0; i < kBlocks; i++)
            blocks.push_back(store.fetch(data_block(i)));
    }

    std::vector<BitVec> raw(kBlocks, BitVec(cfg.l2.scheme_cfg.block_bits));
    for (std::size_t i = 0; i < kBlocks; i++)
        cache::toBitVec(blocks[i], raw[i]);
    std::vector<BitVec> words = raw;
    if (cfg.l2.ecc) {
        ecc::BlockCodec codec(cfg.l2.scheme_cfg.block_bits,
                              cfg.l2.ecc_segment_bits);
        SpanScope s(log, "ecc.encode", point);
        for (std::size_t i = 0; i < kBlocks; i++)
            codec.encodeInto(raw[i], words[i]);
        r.ecc_ns = s.end() / double(kBlocks);
    }

    {
        auto scheme =
            core::makeScheme(cfg.l2.scheme, cfg.l2.effectiveSchemeConfig());
        r.batched = usesBatchedPath(*scheme);
        std::uint64_t sink = 0;
        SpanScope s(log, "encoding.transfer", point);
        for (std::size_t i = 0; i < kBlocks; i++)
            sink += scheme->transfer(words[i]).totalFlips();
        r.enc_ns = s.end() / double(kBlocks);
        g_sink = g_sink + sink;
    }

    {
        sim::EventQueue eq;
        dram::DramSystem dram(eq, cfg.dram);
        std::uint64_t done = 0;
        SpanScope s(log, "dram.access", point);
        for (std::size_t i = 0; i < kDramOps; i++) {
            dram.access(data_block(i),
                        data_ops[i % data_ops.size()]->is_write,
                        [&done] { done++; });
            if (i % 8 == 7)
                eq.run();
        }
        eq.run();
        r.dram_ns = s.end() / double(kDramOps);
        g_sink = g_sink + done;
    }

    {
        sim::EventQueue eq;
        CountingStore store(cfg.app, cfg.seed);
        cache::MemHierarchy mem(eq, cfg.l2, store, cores, cfg.l1, cfg.dram);
        prefillLikeRunSystem(mem, cfg, threads);
        store.fetches = 0;

        // Closed loop, one access in flight: each miss drains before
        // the next access issues.
        int pending = 0;
        cache::DoneCb done{[](void *ctx, unsigned) {
                               --*static_cast<int *>(ctx);
                           },
                           &pending, 0};
        SpanScope s(log, "cache.access", point);
        for (const auto &op : ops) {
            if (!mem.access(op.core, op.addr, op.is_write, op.value,
                            op.ifetch, done)) {
                pending++;
                eq.run();
            }
        }
        double ns = s.end();

        const auto &hs = mem.stats();
        const auto &ds = mem.dramSystem().stats();
        double accesses = double(hs.l1i_accesses.value()
                                 + hs.l1d_accesses.value());
        double transfers = double(hs.read_transfers.value()
                                  + hs.write_transfers.value());
        double dram_ops = double(ds.reads.value() + ds.writes.value());
        r.cache_ns = ns / accesses;
        r.cache_self_ns = (ns - transfers * (r.enc_ns + r.ecc_ns)
                           - dram_ops * r.dram_ns
                           - double(store.fetches) * r.backing_ns)
            / accesses;
        r.fetch_per_l2_request = hs.l2_requests.value()
            ? double(store.fetches) / double(hs.l2_requests.value())
            : 0.0;
        r.row_hits = ds.row_hits.value();
        r.row_accesses = ds.row_hits.value() + ds.row_misses.value();
    }
    return r;
}

/** Per-point run through the same calls runScaledApp makes, each
 *  wrapped in a span. */
sim::AppRun
tracedPoint(const sim::SystemConfig &cfg, int point, SpanLog &log)
{
    SpanScope whole(log, "point", point);
    sim::AppRun run;
    {
        SpanScope s(log, "sim.run_system", point);
        run.result = sim::runSystem(cfg);
    }
    {
        SpanScope s(log, "energy.account", point);
        run.l2 = sim::computeL2Energy(cfg, run.result);
        run.processor = sim::computeProcessorEnergy(cfg, run.result, run.l2);
    }
    {
        SpanScope s(log, "sim.config_hash", point);
        g_sink = g_sink + sim::configHash(cfg);
    }
    return run;
}

/** Host-time shares of the profiler's components, grouped into the
 *  replay table's layers. */
std::map<std::string, double>
profilerShares(const prof::Profile &p)
{
    std::map<std::string, double> ns;
    double total = 0;
    for (unsigned c = 0; c < prof::kNumComponents; c++) {
        std::string name = prof::componentName(prof::Component(c));
        std::string layer = "core";
        if (name.rfind("cache.", 0) == 0)
            layer = "cache";
        else if (name == "encoder" || name.rfind("link.", 0) == 0)
            layer = "encoding";
        else if (name == "dram" || name == "energy")
            layer = name;
        ns[layer] += double(p.comp[c].self_ns);
        total += double(p.comp[c].self_ns);
    }
    for (auto &kv : ns)
        kv.second = total > 0 ? kv.second / total : 0.0;
    return ns;
}

} // namespace

void
runTraced(const Workload &w, sim::Runner &runner,
          const std::vector<std::uint64_t> &expect_in,
          const std::string &spans_path, const std::string &scratch_dir,
          Report *report)
{
    const std::size_t n = w.points.size();
    std::vector<sim::SystemConfig> cfgs;
    for (const auto &cfg : w.points)
        cfgs.push_back(sim::scaledConfig(cfg));

    std::vector<std::uint64_t> expect = expect_in;

    // 1. Plain sweep, tracing off: reference time and runner queueing.
    sim::RunStats before = sim::runStats();
    auto t0 = Clock::now();
    auto plain = runner.run(w.points);
    double plain_s = secondsSince(t0);
    sim::RunStats after = sim::runStats();
    if (expect.empty()) {
        for (const auto &run : plain)
            expect.push_back(digestOf(run));
    }
    report->attempted += n;
    report->failed += countMismatches(plain, expect, "plain sweep");
    double queue_wait_s =
        (after.queue_seconds.sum() - before.queue_seconds.sum())
        / double(n);
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    double peak_rss_mb = double(ru.ru_maxrss) / 1024.0; // KiB -> MiB
    double point_sum_s = after.sim_seconds.sum() - before.sim_seconds.sum();
    double imbalance = plain_s / (point_sum_s / double(w.jobs));

    // 2. Traced sweep: the same points on the same number of threads,
    //    with spans around runSystem, the energy accounting and
    //    configHash.
    std::vector<SpanLog> logs;
    for (unsigned t = 0; t <= w.jobs; t++)
        logs.emplace_back(t);
    std::vector<sim::AppRun> traced(n);
    std::atomic<std::size_t> next{0};
    t0 = Clock::now();
    {
        std::vector<std::thread> pool;
        for (unsigned t = 0; t < w.jobs; t++) {
            pool.emplace_back([&, t] {
                for (std::size_t i; (i = next++) < n;)
                    traced[i] = tracedPoint(cfgs[i], int(i), logs[t]);
            });
        }
        for (auto &th : pool)
            th.join();
    }
    double traced_s = secondsSince(t0);
    report->attempted += n;
    report->failed += countMismatches(traced, expect, "traced sweep");

    // 3. Layer replays, run-cache and statdump costs, on one thread.
    SpanLog &main_log = logs[w.jobs];
    std::vector<Rates> rates;
    for (std::size_t i = 0; i < n; i++)
        rates.push_back(replayPoint(cfgs[i], int(i), main_log));

    {
        std::error_code ec;
        std::filesystem::remove_all(scratch_dir, ec);
        sim::RunCache rc(scratch_dir);
        for (std::size_t i = 0; i < n; i++) {
            std::uint64_t key = sim::configHash(cfgs[i]);
            {
                SpanScope s(main_log, "sim.runcache.store", int(i));
                rc.store(key, traced[i]);
            }
            std::optional<sim::AppRun> back;
            {
                SpanScope s(main_log, "sim.runcache.load", int(i));
                back = rc.load(key);
            }
            report->attempted++;
            if (!back || digestOf(*back) != expect[i]) {
                std::fprintf(stderr,
                             "perfbench: run cache round trip changed "
                             "point %zu\n",
                             i);
                report->failed++;
            }
            {
                SpanScope s(main_log, "sim.statdump", int(i));
                StatRegistry reg = sim::buildRunRegistry(cfgs[i], traced[i],
                                                         key);
                std::ostringstream os;
                sim::writeRegistryJson(os, reg);
                g_sink = g_sink + os.str().size();
            }
        }
        std::filesystem::remove_all(scratch_dir, ec);
    }

    // 4. Profiled sweep through the runner, via the profiler's API.
    prof::resetForTest();
    prof::setEnabled(true);
    t0 = Clock::now();
    auto profiled = runner.run(w.points);
    double prof_s = secondsSince(t0);
    prof::setEnabled(false);
    prof::Profile profile = prof::mergedProfile();
    report->attempted += n;
    report->failed += countMismatches(profiled, expect, "profiled sweep");

    // The layer table.
    SpanTotals spans(logs);
    double run_system_s = 0, energy_s = 0, hash_s = 0, store_s = 0,
           load_s = 0, statdump_s = 0;
    double stream_s = 0, backing_s = 0, cache_self_s = 0, enc_s = 0,
           ecc_s = 0, dram_s = 0;
    double stream_ops = 0, fetches = 0, accesses = 0, transfers = 0,
           ecc_blocks = 0, dram_ops = 0, batched = 0, flips = 0;
    double insts = 0, cycles = 0, l1_misses = 0, l2_req = 0, l2_hits = 0,
           l2_misses = 0, recalls = 0, busy = 0, cache_ns = 0;
    double row_hits = 0, row_accesses = 0;
    for (std::size_t i = 0; i < n; i++) {
        int p = int(i);
        run_system_s += spans.seconds("sim.run_system", p);
        energy_s += spans.seconds("energy.account", p);
        hash_s += spans.seconds("sim.config_hash", p);
        store_s += spans.seconds("sim.runcache.store", p);
        load_s += spans.seconds("sim.runcache.load", p);
        statdump_s += spans.seconds("sim.statdump", p);

        const auto &res = traced[i].result;
        const auto &hs = res.hierarchy;
        const Rates &r = rates[i];
        double ops = double(hs.l1d_accesses.value());
        double acc = double(hs.l1i_accesses.value() + hs.l1d_accesses.value());
        double xfers = double(hs.read_transfers.value()
                              + hs.write_transfers.value());
        double fetch = r.fetch_per_l2_request * double(hs.l2_requests.value());
        double dops = double(res.dram_reads + res.dram_writes);

        stream_ops += ops;
        fetches += fetch;
        accesses += acc;
        transfers += xfers;
        dram_ops += dops;
        if (cfgs[i].l2.ecc)
            ecc_blocks += xfers;
        if (r.batched)
            batched += xfers;
        stream_s += r.stream_ns * ops * 1e-9;
        backing_s += r.backing_ns * fetch * 1e-9;
        cache_self_s += r.cache_self_ns * acc * 1e-9;
        cache_ns += r.cache_ns * acc;
        enc_s += r.enc_ns * xfers * 1e-9;
        ecc_s += r.ecc_ns * xfers * 1e-9;
        dram_s += r.dram_ns * dops * 1e-9;

        insts += double(res.instructions);
        cycles += double(res.cycles);
        l1_misses += double(hs.l1i_misses.value() + hs.l1d_misses.value());
        l2_req += double(hs.l2_requests.value());
        l2_hits += double(hs.l2_hits.value());
        l2_misses += double(hs.l2_misses.value());
        recalls += double(hs.recalls.value());
        busy += double(hs.bank_busy_cycles);
        flips += hs.data_flips + hs.ctrl_flips;
        row_hits += double(r.row_hits);
        row_accesses += double(r.row_accesses);
    }
    double replayed_s = stream_s + backing_s + cache_self_s + enc_s + ecc_s
        + dram_s;
    double unattributed_s = run_system_s - replayed_s;
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    // Profiler cross-check: the same layer grouping on both sides.
    double total_s = run_system_s + energy_s;
    std::map<std::string, double> replay_share = {
        {"core", ratio(stream_s + unattributed_s, total_s)},
        {"cache", ratio(cache_self_s + backing_s + ecc_s, total_s)},
        {"encoding", ratio(enc_s, total_s)},
        {"dram", ratio(dram_s, total_s)},
        {"energy", ratio(energy_s, total_s)},
    };
    auto prof_share = profilerShares(profile);
    double share_gap = 0;
    for (const auto &[layer, share] : replay_share)
        share_gap = std::max(share_gap,
                             std::fabs(share - prof_share[layer]) * 100.0);

    std::fprintf(stderr,
                 "perfbench: layer table for %s (%zu points, host s)\n",
                 w.name.c_str(), n);
    const std::pair<const char *, double> rows[] = {
        {"workloads.stream_s", stream_s}, {"workloads.backing_s", backing_s},
        {"cache.self_s", cache_self_s},   {"encoding.s", enc_s},
        {"ecc.s", ecc_s},                 {"dram.s", dram_s},
        {"sim.unattributed_s", unattributed_s},
        {"energy.account_s", energy_s},
    };
    double sum = 0;
    for (const auto &[name, s] : rows) {
        std::fprintf(stderr, "  %-22s %10.4f  %5.1f%%\n", name, s,
                     100.0 * ratio(s, total_s));
        sum += s;
    }
    std::fprintf(stderr,
                 "  %-22s %10.4f  (sim.run_system_s %.4f + energy %.4f)\n",
                 "sum", sum, run_system_s, energy_s);
    std::fprintf(stderr,
                 "  residual: sim.unattributed_s %.4f of run_system_s %.4f "
                 "(%.1f%%)\n",
                 unattributed_s, run_system_s,
                 100.0 * ratio(unattributed_s, run_system_s));
    for (const auto &[layer, share] : replay_share) {
        std::fprintf(stderr, "  share %-9s replay %5.1f%%  profiler %5.1f%%\n",
                     layer.c_str(), 100 * share, 100 * prof_share[layer]);
    }
    std::fprintf(stderr,
                 "  sweeps: plain %.3fs traced %.3fs profiled %.3fs\n",
                 plain_s, traced_s, prof_s);

    auto add = [report](const char *name, double v, const char *unit) {
        report->metrics.push_back({name, v, unit});
    };
    add("workloads.stream_ns_per_op", ratio(stream_s * 1e9, stream_ops), "ns");
    add("workloads.stream_s", stream_s, "s");
    add("workloads.backing_ns_per_fetch", ratio(backing_s * 1e9, fetches),
        "ns");
    add("workloads.backing_s", backing_s, "s");
    add("cpu.sim_instructions", insts, "count");
    add("cpu.sim_ipc", ratio(insts, cycles), "1/cycle");
    add("cache.l1_accesses", accesses, "count");
    add("cache.l1_miss_ratio", ratio(l1_misses, accesses), "ratio");
    add("cache.l2_requests", l2_req, "count");
    add("cache.l2_hit_ratio", ratio(l2_hits, l2_hits + l2_misses), "ratio");
    add("cache.recalls", recalls, "count");
    add("cache.bank_busy_cycles", busy, "cycles");
    add("cache.ns_per_access", ratio(cache_ns, accesses), "ns");
    add("cache.self_s", cache_self_s, "s");
    add("encoding.transfers", transfers, "count");
    add("encoding.flips_per_transfer", ratio(flips, transfers), "count");
    add("encoding.batched_frac", ratio(batched, transfers), "ratio");
    add("encoding.ns_per_transfer", ratio(enc_s * 1e9, transfers), "ns");
    add("encoding.s", enc_s, "s");
    add("ecc.ns_per_block", ratio(ecc_s * 1e9, ecc_blocks), "ns");
    add("ecc.s", ecc_s, "s");
    add("dram.accesses", dram_ops, "count");
    add("dram.row_hit_ratio", ratio(row_hits, row_accesses), "ratio");
    add("dram.ns_per_access", ratio(dram_s * 1e9, dram_ops), "ns");
    add("dram.s", dram_s, "s");
    add("energy.account_us", energy_s * 1e6 / double(n), "us");
    add("sim.run_system_s", run_system_s, "s");
    add("sim.config_hash_us", hash_s * 1e6 / double(n), "us");
    add("sim.runcache.store_us", store_s * 1e6 / double(n), "us");
    add("sim.runcache.load_us", load_s * 1e6 / double(n), "us");
    add("sim.statdump_us", statdump_s * 1e6 / double(n), "us");
    add("sim.runner.queue_wait_s", queue_wait_s, "s");
    add("sim.runner.imbalance", imbalance, "ratio");
    add("sim.peak_rss_mb", peak_rss_mb, "MB");
    add("sim.unattributed_s", unattributed_s, "s");
    add("sim.unattributed_frac", ratio(unattributed_s, run_system_s),
        "ratio");
    add("sim.trace_overhead_pct", (traced_s / plain_s - 1.0) * 100.0, "%");
    add("prof.overhead_pct", (prof_s / plain_s - 1.0) * 100.0, "%");
    add("prof.share_gap_pct", share_gap, "%");
    add("model.paper_err_pct", paperErrPct(w, traced), "%");

    if (!spans_path.empty())
        writeChromeTrace(logs, spans_path);
}

} // namespace perfbench
