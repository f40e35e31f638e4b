/**
 * @file
 * Shared declarations of the figure-sweep benchmark (see README.md).
 *
 * A workload is a fixed list of SystemConfigs built by the benchmark
 * itself: the points of one paper figure sweep, with fixed instruction
 * budgets and the workload seed mixed into every cfg.seed. The timed
 * run (main.cc) pushes the list through sim::Runner with the run cache
 * off; the traced run (traced.cc) re-runs it with spans around the
 * public entry points of each layer and replays the layers that only
 * run inside runSystem to attribute host time.
 */

#ifndef DESC_PERFBENCH_BENCH_HH
#define DESC_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/runner.hh"

namespace perfbench {

using namespace desc;

/** The seed whose points are exactly the ones the figure harnesses
 *  simulate; its per-point digests are pinned in digests/. */
constexpr std::uint64_t kDefaultSeed = 0;

struct Workload
{
    std::string name;
    /** Runner width: fixed per workload, never read from the host. */
    unsigned jobs = 1;
    /** The timed points, budgets already final (scaledConfig is the
     *  identity on them because the scale knob is refused). */
    std::vector<sim::SystemConfig> points;
    /** One short point per distinct app, run during set-up. */
    std::vector<sim::SystemConfig> warm;
    /** The simulated headline this workload reproduces, and the
     *  paper's value for it. */
    std::function<double(const std::vector<sim::AppRun> &)> headline;
    double paper_value = 0.0;
};

/** Build a workload by name for @p seed; false if the name is unknown. */
bool makeWorkload(const std::string &name, std::uint64_t seed, Workload *out);

/**
 * 64-bit digest of every simulated number of a point: cycles,
 * instructions, all HierarchyStats counters and averages, flips, chunk
 * statistics, DRAM counts and the bits of every energy component.
 */
std::uint64_t digestOf(const sim::AppRun &run);

/** |headline - paper| / paper, in percent. */
double paperErrPct(const Workload &w, const std::vector<sim::AppRun> &runs);

/**
 * Compare each run's digest with @p expect (same length). Returns the
 * number of mismatching points and prints the first few to stderr,
 * tagged with @p what.
 */
std::size_t countMismatches(const std::vector<sim::AppRun> &runs,
                            const std::vector<std::uint64_t> &expect,
                            const char *what);

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Outcome of one benchmark mode, printed as the result JSON line. */
struct Report
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<Metric> metrics;
};

/**
 * The traced run: plain @p runner sweep, traced in-place sweep, per-point
 * layer replays, run-cache and statdump costs, and a profiled sweep.
 * Fills @p report with every per-layer metric and writes the spans as
 * Chrome trace-event JSON to @p spans_path ("" skips the file).
 * @p expect holds the per-point digests every sweep must reproduce
 * (empty: the plain sweep defines them). @p scratch_dir is a
 * directory the run-cache measurement may create and delete.
 */
void runTraced(const Workload &w, sim::Runner &runner,
               const std::vector<std::uint64_t> &expect,
               const std::string &spans_path, const std::string &scratch_dir,
               Report *report);

/** Seconds elapsed since @p t0 on the steady clock. */
inline double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                         - t0)
        .count();
}

/** Median of @p v (0 when empty); @p v is reordered. */
double median(std::vector<double> v);

/** The @p q quantile (0..1) of @p v by linear interpolation. */
double quantile(std::vector<double> v, double q);

} // namespace perfbench

#endif // DESC_PERFBENCH_BENCH_HH
