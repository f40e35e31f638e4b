/**
 * @file
 * The figure-sweep benchmark program, desc_perfbench (see README.md).
 *
 *   desc_perfbench --workload NAME [--seed N] [--seconds S]
 *                  [--trace] [--setup-only] [--digests FILE]
 *                  [--write-digests FILE] [--spans FILE] [--scratch DIR]
 *   desc_perfbench --self-test
 *   desc_perfbench --about
 *
 * The last line of stdout is one JSON object {correct, attempted,
 * failed, metrics}. Progress and tables go to stderr. The process
 * refuses to run when a DESC_* knob that changes what is measured is
 * set, and it sets every such choice itself: run cache off, Runner
 * width per workload, budgets fixed, tracing and profiling off except
 * where the traced run turns them on through their APIs.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench.hh"
#include "common/env.hh"
#include "common/trace.hh"
#include "sim/runcache.hh"
#include "sim/runner.hh"

using namespace perfbench;

namespace {

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    bool setup_only = false;
    bool self_test = false;
    bool about = false;
    std::string digests;
    std::string write_digests;
    std::string spans;
    std::string scratch = "perfbench-scratch";
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: desc_perfbench --workload NAME "
                 "[--seed N] [--seconds S] [--trace] [--setup-only] "
                 "[--digests FILE] [--write-digests FILE] [--spans FILE] "
                 "[--scratch DIR] | --self-test | --about\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = value();
        } else if (a == "--seed") {
            std::string v = value();
            o.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end)
                usage("--seed takes a non-negative integer");
        } else if (a == "--seconds") {
            std::string v = value();
            o.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || !(o.seconds > 0))
                usage("--seconds takes a positive number");
        } else if (a == "--trace") {
            o.trace = true;
        } else if (a == "--setup-only") {
            o.setup_only = true;
        } else if (a == "--self-test") {
            o.self_test = true;
        } else if (a == "--about") {
            o.about = true;
        } else if (a == "--digests") {
            o.digests = value();
        } else if (a == "--write-digests") {
            o.write_digests = value();
        } else if (a == "--spans") {
            o.spans = value();
        } else if (a == "--scratch") {
            o.scratch = value();
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (!o.self_test && !o.about && o.workload.empty())
        usage("--workload is required");
    return o;
}

/**
 * True (after printing why) when a registered DESC_* knob is set. Only
 * knobs that no path of this benchmark reads are tolerated; anything
 * else — engine modes, scale, jobs, profiler, tracing, sidecars,
 * caches — would change what is measured.
 */
bool
refuseEnvironment()
{
    static const char *const kHarmless[] = {
        "DESC_BENCH_QUICK", "DESC_TABLE_CSV", "DESC_VCD_OUT"};
    bool refuse = false;
    for (unsigned v = 0; v < env::kNumVars; v++) {
        const char *name = env::name(env::Var(v));
        bool harmless = false;
        for (const char *h : kHarmless)
            harmless = harmless || std::strcmp(name, h) == 0;
        if (!harmless && env::isSet(env::Var(v))) {
            std::fprintf(stderr,
                         "perfbench: refusing to run with %s set; the "
                         "benchmark fixes every knob itself\n",
                         name);
            refuse = true;
        }
    }
    return refuse;
}

/**
 * Host time of every point, "worker start to result", read from the
 * runner's own trace channel: runAppCached reports each simulated
 * point's wall time there. Capturing it in memory costs a few
 * formatted lines per point and changes nothing else.
 */
class PointTimes
{
  public:
    PointTimes()
    {
        _file = open_memstream(&_buf, &_len);
        trace::setStream(_file);
        trace::setMask(1u << unsigned(trace::Channel::Runner));
    }

    ~PointTimes()
    {
        trace::setMask(0);
        trace::setStream(nullptr);
        std::fclose(_file);
        std::free(_buf);
    }

    PointTimes(const PointTimes &) = delete;
    PointTimes &operator=(const PointTimes &) = delete;

    /** Seconds of every "simulated <tag> in <s>s" line so far. */
    std::vector<double>
    seconds()
    {
        std::fflush(_file);
        std::vector<double> out;
        std::istringstream in(std::string(_buf, _len));
        for (std::string line; std::getline(in, line);) {
            auto at = line.find("] simulated ");
            auto in_pos = line.rfind(" in ");
            if (at == std::string::npos || in_pos == std::string::npos)
                continue;
            out.push_back(std::strtod(line.c_str() + in_pos + 4, nullptr));
        }
        return out;
    }

  private:
    char *_buf = nullptr;
    std::size_t _len = 0;
    std::FILE *_file = nullptr;
};

std::vector<std::uint64_t>
digestsOf(const std::vector<sim::AppRun> &runs)
{
    std::vector<std::uint64_t> d;
    for (const auto &run : runs)
        d.push_back(digestOf(run));
    return d;
}

/** Pinned digests: '#' comments, then "<index> <hex digest> <label>". */
bool
readDigests(const std::string &path, std::vector<std::uint64_t> *out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    for (std::string line; std::getline(in, line);) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::size_t index;
        std::string hex;
        if (!(ls >> index >> hex) || index != out->size())
            return false;
        out->push_back(std::strtoull(hex.c_str(), nullptr, 16));
    }
    return true;
}

bool
writeDigests(const std::string &path, const Workload &w, std::uint64_t seed,
             const std::vector<std::uint64_t> &digests)
{
    std::ofstream out(path);
    out << "# " << w.name << " seed " << seed << ": " << digests.size()
        << " points (index, digest, app/scheme/chunk/wires/ecc)\n";
    for (std::size_t i = 0; i < digests.size(); i++) {
        const auto &cfg = w.points[i];
        char line[160];
        std::snprintf(line, sizeof(line), "%zu %016llx %s/%s/%u/%u/%d\n", i,
                      (unsigned long long)digests[i], cfg.app.name,
                      sim::shortSchemeName(cfg.l2.scheme).c_str(),
                      cfg.l2.scheme_cfg.chunk_bits,
                      cfg.l2.scheme_cfg.bus_wires, int(cfg.l2.ecc));
        out << line;
    }
    return bool(out);
}

void
printReport(const Report &r)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                r.failed == 0 ? "true" : "false", r.attempted, r.failed);
    for (std::size_t i = 0; i < r.metrics.size(); i++) {
        const auto &m = r.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

/**
 * Timed reps of the whole sweep through the Runner until @p seconds
 * would be exceeded (at least one). Every rep's digests must match
 * @p expect (or the first rep when @p expect is empty). Each rep's
 * point times are sorted, the k-th smallest is taken as its median
 * over the reps, and the percentiles are read off those medians.
 */
Report
runTimed(const Workload &w, sim::Runner &runner, double seconds,
         std::vector<std::uint64_t> expect, double setup_s)
{
    Report r;
    std::vector<double> sweeps, mips;
    std::vector<std::vector<double>> point_ms(w.points.size());
    double err_pct = 0;
    auto t_loop = std::chrono::steady_clock::now();
    do {
        PointTimes times;
        auto t0 = std::chrono::steady_clock::now();
        auto runs = runner.run(w.points);
        double s = secondsSince(t0);
        auto per_point = times.seconds();

        if (expect.empty())
            expect = digestsOf(runs);
        r.attempted += runs.size();
        r.failed += countMismatches(runs, expect, "timed rep");
        if (per_point.size() != runs.size()) {
            std::fprintf(stderr,
                         "perfbench: %zu point times for %zu points\n",
                         per_point.size(), runs.size());
            r.failed += runs.size();
            per_point.resize(runs.size());
        }
        double insts = 0;
        for (const auto &run : runs)
            insts += double(run.result.instructions);
        std::sort(per_point.begin(), per_point.end());
        for (std::size_t i = 0; i < per_point.size(); i++)
            point_ms[i].push_back(per_point[i] * 1e3);
        sweeps.push_back(s);
        mips.push_back(insts / s / 1e6);
        if (sweeps.size() == 1)
            err_pct = paperErrPct(w, runs);
        std::fprintf(stderr, "perfbench: %s rep %zu: %.3f s\n",
                     w.name.c_str(), sweeps.size(), s);
    } while (secondsSince(t_loop) + median(sweeps) <= seconds);

    std::vector<double> per_point_ms;
    for (auto &samples : point_ms)
        per_point_ms.push_back(median(samples));
    std::fprintf(stderr,
                 "perfbench: %s: %zu reps, %zu point samples, headline "
                 "error %.3f%%\n",
                 w.name.c_str(), sweeps.size(), per_point_ms.size(),
                 err_pct);
    r.metrics = {
        {"sweep_s", median(sweeps), "s"},
        {"sim_mips", median(mips), "Minst/s"},
        {"point_p50_ms", quantile(per_point_ms, 0.5), "ms"},
        {"point_p90_ms", quantile(per_point_ms, 0.9), "ms"},
        {"setup_s", setup_s, "s"},
    };
    return r;
}

/**
 * The digest check must catch a single changed counter, a single
 * changed energy bit, and a single changed pinned digest; identical
 * results must pass and a pinned file must round-trip.
 */
int
selfTest(const std::string &scratch)
{
    Workload w;
    makeWorkload("niagara_sweep", kDefaultSeed, &w);
    const std::size_t per_scheme = workloads::parallelApps().size();
    std::vector<sim::SystemConfig> pts = {w.points[0],
                                          w.points[6 * per_scheme]};
    for (auto &cfg : pts)
        cfg.insts_per_thread = 2'000;
    w.points = pts;

    auto runs = sim::Runner(1).run(pts);
    auto again = sim::Runner(2).run(pts);
    auto expect = digestsOf(runs);
    int failures = 0;
    auto check = [&failures](bool ok, const char *what) {
        std::fprintf(stderr, "perfbench self-test: %s: %s\n",
                     ok ? "ok" : "FAIL", what);
        failures += ok ? 0 : 1;
    };

    check(countMismatches(runs, expect, "identical") == 0,
          "identical results pass");
    check(countMismatches(again, expect, "rerun") == 0,
          "a rerun on two workers reproduces every digest");

    auto perturbed = runs;
    perturbed[1].result.hierarchy.l2_hits.inc();
    check(countMismatches(perturbed, expect, "expected mismatch") == 1,
          "one extra L2 hit is caught");

    perturbed = runs;
    perturbed[0].l2.static_energy =
        std::nextafter(perturbed[0].l2.static_energy, 1.0);
    check(countMismatches(perturbed, expect, "expected mismatch") == 1,
          "a one-ulp energy change is caught");

    auto bad_pin = expect;
    bad_pin[0] ^= 1;
    check(countMismatches(runs, bad_pin, "expected mismatch") == 1,
          "a perturbed pinned digest is caught");

    std::string path = scratch + ".digests";
    std::vector<std::uint64_t> back;
    check(writeDigests(path, w, kDefaultSeed, expect)
              && readDigests(path, &back) && back == expect,
          "a pinned digest file round-trips");
    std::remove(path.c_str());

    std::fprintf(stderr, "perfbench self-test: %s\n",
                 failures ? "FAILED" : "passed");
    return failures ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    auto t_main = std::chrono::steady_clock::now();
    Options o = parseArgs(argc, argv);
    if (o.about) {
        std::printf("{\"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
                    DESC_PERFBENCH_COMPILER, DESC_PERFBENCH_BUILD_TYPE);
        return 0;
    }
    if (refuseEnvironment())
        return 2;
    sim::setGlobalRunCacheDir("");
    if (o.self_test)
        return selfTest(o.scratch);

    // Set-up: configs, the runner pool, and one short point per app.
    Workload w;
    if (!makeWorkload(o.workload, o.seed, &w))
        usage(("unknown workload " + o.workload).c_str());
    sim::Runner runner(w.jobs);
    runner.run(w.warm);
    double setup_s = secondsSince(t_main);

    if (o.setup_only) {
        printReport({0, 0, {{"setup_s", setup_s, "s"}}});
        return 0;
    }

    std::vector<std::uint64_t> expect;
    if (!o.digests.empty() && o.seed == kDefaultSeed
        && !readDigests(o.digests, &expect)) {
        std::fprintf(stderr, "perfbench: cannot read pinned digests %s\n",
                     o.digests.c_str());
        return 2;
    }
    if (!expect.empty() && expect.size() != w.points.size()) {
        std::fprintf(stderr,
                     "perfbench: %s pins %zu points, the workload has %zu\n",
                     o.digests.c_str(), expect.size(), w.points.size());
        return 2;
    }

    if (!o.write_digests.empty()) {
        auto runs = runner.run(w.points);
        return writeDigests(o.write_digests, w, o.seed, digestsOf(runs))
            ? 0
            : 1;
    }

    Report report;
    if (o.trace)
        runTraced(w, runner, expect, o.spans, o.scratch, &report);
    else
        report = runTimed(w, runner, o.seconds, expect, setup_s);
    printReport(report);
    return report.failed ? 1 : 0;
}
