#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>

#include "bench.hh"
#include "core/factory.hh"
#include "sim/runcache.hh"

namespace perfbench {

using encoding::SchemeKind;

namespace {

// Budgets are fixed here, not taken from the harness scale knob: the
// Fig. 16/20 matrix at a quarter of the harnesses' 40k insts/thread,
// Fig. 30's OoO budget, and half the harnesses' design-space sweep
// budget (the grid here is twice Fig. 26's).
constexpr std::uint64_t kNiagaraBudget = 10'000;
constexpr std::uint64_t kOooBudget = 160'000;
constexpr std::uint64_t kDesignBudget = 7'500;
constexpr std::uint64_t kWarmBudget = 1'000;

/** SplitMix64 finalizer: spreads a small workload seed over 64 bits. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** The paper's baseline machine for @p app, with the workload seed
 *  mixed in; the default seed leaves the figure harnesses' seed. */
sim::SystemConfig
baseline(const workloads::AppParams &app, std::uint64_t seed,
         std::uint64_t budget)
{
    auto cfg = sim::baselineConfig(app);
    cfg.insts_per_thread = budget;
    if (seed != kDefaultSeed)
        cfg.seed ^= mix(seed);
    return cfg;
}

double
geomean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += std::log(x);
    return std::exp(s / double(v.size()));
}

/** Set-up points: the first point of every distinct app, shortened.
 *  They fill the per-geometry L2 warmup snapshots and memoized model
 *  tables before anything is timed. */
std::vector<sim::SystemConfig>
warmPoints(const std::vector<sim::SystemConfig> &points)
{
    std::vector<sim::SystemConfig> warm;
    std::map<std::string, bool> seen;
    for (const auto &cfg : points) {
        if (seen[cfg.app.name])
            continue;
        seen[cfg.app.name] = true;
        auto w = cfg;
        w.insts_per_thread = kWarmBudget;
        warm.push_back(w);
    }
    return warm;
}

/** Fig. 16/20: 16 parallel apps x 8 schemes on the 8x4 SMT machine,
 *  scheme-major. Headline: ZS-DESC L2 energy reduction (paper 1.81x). */
void
niagaraSweep(std::uint64_t seed, Workload *w)
{
    const auto &apps = workloads::parallelApps();
    for (unsigned s = 0; s < encoding::kNumSchemes; s++) {
        for (const auto &app : apps) {
            auto cfg = baseline(app, seed, kNiagaraBudget);
            sim::applyScheme(cfg, core::allSchemeKinds()[s]);
            w->points.push_back(cfg);
        }
    }
    const std::size_t n = apps.size();
    w->jobs = 1;
    w->paper_value = 1.81;
    w->headline = [n](const std::vector<sim::AppRun> &runs) {
        const std::size_t zs = 6; // ZS-DESC in the Fig. 16 legend
        std::vector<double> norm;
        for (std::size_t a = 0; a < n; a++)
            norm.push_back(runs[zs * n + a].l2.total() / runs[a].l2.total());
        return 1.0 / geomean(norm);
    };
}

/** Fig. 28-30 on the OoO core: 8 SPEC apps x 8 schemes without ECC,
 *  then with (72,64) SECDED every scheme whose segments fit the
 *  72-wire protected bus (the DZC and zero-skipped bus-invert segment
 *  sizes do not). Headline: ZS-DESC slowdown with ECC off (paper
 *  1.06). */
void
oooSpec(std::uint64_t seed, Workload *w)
{
    const auto &apps = workloads::specApps();
    auto add = [&](SchemeKind kind, bool ecc) {
        for (const auto &app : apps) {
            auto cfg = baseline(app, seed, kOooBudget);
            cfg.cpu = sim::CpuKind::OutOfOrder;
            cfg.threads_per_core = 1;
            sim::applyScheme(cfg, kind);
            cfg.l2.ecc = ecc;
            cfg.l2.ecc_segment_bits = 64;
            w->points.push_back(cfg);
        }
    };
    for (unsigned s = 0; s < encoding::kNumSchemes; s++)
        add(core::allSchemeKinds()[s], false);
    for (SchemeKind kind :
         {SchemeKind::Binary, SchemeKind::BusInvert, SchemeKind::DescBasic,
          SchemeKind::DescZeroSkip, SchemeKind::DescLastValueSkip})
        add(kind, true);
    const std::size_t n = apps.size();
    w->jobs = 1;
    w->paper_value = 1.06;
    w->headline = [n](const std::vector<sim::AppRun> &runs) {
        const std::size_t zs = 6;
        std::vector<double> norm;
        for (std::size_t a = 0; a < n; a++) {
            norm.push_back(double(runs[zs * n + a].result.cycles)
                           / double(runs[a].result.cycles));
        }
        return geomean(norm);
    };
}

/** Fig. 26 grid for both skipping DESC variants: binary baselines,
 *  then (scheme, chunk, wires, app), on one worker. Headline: ZS-DESC
 *  L2 energy reduction at 4-bit chunks / 128 wires (paper 1.81x). */
void
descDesignSweep(std::uint64_t seed, Workload *w)
{
    const auto &all = workloads::parallelApps();
    std::vector<workloads::AppParams> apps;
    for (std::size_t i = 0; i < all.size(); i += 2)
        apps.push_back(all[i]);

    for (const auto &app : apps)
        w->points.push_back(baseline(app, seed, kDesignBudget));
    const unsigned chunks[] = {1, 2, 4, 8};
    const unsigned wires[] = {32, 64, 128, 256};
    std::size_t zs_4_128 = 0;
    for (SchemeKind kind :
         {SchemeKind::DescZeroSkip, SchemeKind::DescLastValueSkip}) {
        for (unsigned chunk : chunks) {
            for (unsigned wire : wires) {
                if (kind == SchemeKind::DescZeroSkip && chunk == 4
                    && wire == 128)
                    zs_4_128 = w->points.size();
                for (const auto &app : apps) {
                    auto cfg = baseline(app, seed, kDesignBudget);
                    sim::applyScheme(cfg, kind);
                    cfg.l2.org.bus_wires = wire;
                    cfg.l2.scheme_cfg.bus_wires = wire;
                    cfg.l2.scheme_cfg.chunk_bits = chunk;
                    w->points.push_back(cfg);
                }
            }
        }
    }
    const std::size_t n = apps.size();
    w->jobs = 1;
    w->paper_value = 1.81;
    w->headline = [n, zs_4_128](const std::vector<sim::AppRun> &runs) {
        double base = 0.0, desc = 0.0;
        for (std::size_t a = 0; a < n; a++) {
            base += runs[a].l2.total();
            desc += runs[zs_4_128 + a].l2.total();
        }
        return base / desc;
    };
}

/** FNV-1a over 64-bit words. */
class Digest
{
  public:
    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; i++) {
            _h ^= (v >> (8 * i)) & 0xff;
            _h *= 0x100000001b3ULL;
        }
    }

    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    avg(const Average &a)
    {
        f64(a.sum());
        f64(a.min());
        f64(a.max());
        u64(a.count());
    }

    std::uint64_t value() const { return _h; }

  private:
    std::uint64_t _h = 0xcbf29ce484222325ULL;
};

} // namespace

bool
makeWorkload(const std::string &name, std::uint64_t seed, Workload *out)
{
    Workload w;
    w.name = name;
    if (name == "niagara_sweep")
        niagaraSweep(seed, &w);
    else if (name == "ooo_spec")
        oooSpec(seed, &w);
    else if (name == "desc_design_sweep")
        descDesignSweep(seed, &w);
    else
        return false;
    w.warm = warmPoints(w.points);
    *out = std::move(w);
    return true;
}

std::uint64_t
digestOf(const sim::AppRun &run)
{
    Digest d;
    const auto &r = run.result;
    d.u64(r.cycles);
    d.u64(r.instructions);
    const auto &h = r.hierarchy;
    for (const Counter *c :
         {&h.l1i_accesses, &h.l1i_misses, &h.l1d_accesses, &h.l1d_misses,
          &h.upgrades, &h.l2_requests, &h.l2_hits, &h.l2_misses,
          &h.l2_writebacks_in, &h.l2_fills, &h.l2_evictions_out,
          &h.recalls, &h.read_transfers, &h.write_transfers})
        d.u64(c->value());
    d.f64(h.data_flips);
    d.f64(h.ctrl_flips);
    d.u64(h.bank_busy_cycles);
    d.avg(h.hit_latency);
    d.avg(h.transfer_window);
    const auto &hist = r.chunks.histogram();
    for (unsigned i = 0; i < hist.numBins(); i++)
        d.u64(hist.bin(i));
    d.u64(r.chunks.matches());
    d.u64(r.chunks.matchCandidates());
    d.u64(r.dram_reads);
    d.u64(r.dram_writes);
    for (double e : {run.l2.htree_dynamic, run.l2.array_dynamic,
                     run.l2.aux_dynamic, run.l2.static_energy,
                     run.processor.core_dynamic, run.processor.core_static,
                     run.processor.l1, run.processor.uncore,
                     run.processor.l2})
        d.f64(e);
    return d.value();
}

double
paperErrPct(const Workload &w, const std::vector<sim::AppRun> &runs)
{
    return std::fabs(w.headline(runs) - w.paper_value) / w.paper_value
        * 100.0;
}

std::size_t
countMismatches(const std::vector<sim::AppRun> &runs,
                const std::vector<std::uint64_t> &expect, const char *what)
{
    std::size_t bad = 0;
    for (std::size_t i = 0; i < runs.size(); i++) {
        std::uint64_t got = digestOf(runs[i]);
        if (got == expect[i])
            continue;
        if (bad++ < 5) {
            std::fprintf(stderr,
                         "perfbench: %s: point %zu digest %016llx, "
                         "expected %016llx\n",
                         what, i, (unsigned long long)got,
                         (unsigned long long)expect[i]);
        }
    }
    return bad;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * double(v.size() - 1);
    std::size_t lo = std::size_t(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

} // namespace perfbench
