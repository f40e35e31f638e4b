/**
 * @file
 * The figure driver and what the figure harnesses share.
 *
 * Each figure and ablation of the paper's evaluation (Section 5) is a
 * Figure: the configurations it simulates (its points) and a render
 * step that prints its table to stdout from their results.
 * runFigures() simulates every distinct point of the requested
 * figures once, in one batch on the shared pool (sim/runner.hh), and
 * renders the figures in order. Budgets scale with DESC_SIM_SCALE,
 * results are memoized on disk (sim/runcache.hh), and the output is
 * bit-identical for any job count.
 */

#ifndef DESC_BENCH_BENCHUTIL_HH
#define DESC_BENCH_BENCHUTIL_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/stats.hh"
#include "common/table.hh"
#include "core/factory.hh"
#include "sim/experiment.hh"

namespace desc::bench {

using Points = std::vector<sim::SystemConfig>;
using Runs = std::vector<sim::AppRun>;
using Apps = std::vector<workloads::AppParams>;

/** One figure (or ablation) of the evaluation. */
struct Figure
{
    const char *name;   //!< also the name of its binary
    Points (*points)(); //!< nullptr for a figure that simulates none
    /** Print the figure; runs[i] is the result of points()[i]. */
    void (*render)(const Runs &runs);
};

/** Every figure and ablation, in the order `figures` prints them. */
#define DESC_BENCH_FIGURES(X)                                           \
    X(fig01_l2_fraction) X(fig02_l2_breakdown) X(fig12_chunk_values)    \
    X(fig13_value_locality) X(fig14_device_space)                       \
    X(fig15_segment_sweep) X(fig16_scheme_energy) X(fig17_synthesis)    \
    X(fig18_static_dynamic) X(fig19_processor_energy)                   \
    X(fig20_exec_time) X(fig21_hit_delay) X(fig22_design_scatter)       \
    X(fig23_snuca_time) X(fig24_snuca_energy) X(fig25_banks)            \
    X(fig26_chunk_size) X(fig27_cache_size) X(fig28_ecc_time)           \
    X(fig29_ecc_energy) X(fig30_spec_ooo) X(ablation_adaptive_skip)     \
    X(ablation_addr_desc) X(ablation_low_swing) X(ablation_protocol)

#define DESC_BENCH_DECLARE_FIGURE(name) extern const Figure name;
DESC_BENCH_FIGURES(DESC_BENCH_DECLARE_FIGURE)
#undef DESC_BENCH_DECLARE_FIGURE

/**
 * Run each distinct point of @p figs (by the run cache's hash of its
 * scaled form) once, in one batch, then render the figures in order.
 * Every declared point, repeats included, gets a DESC_STATS_OUT
 * record. Prints the runner summary to stderr when anything ran.
 */
void runFigures(const std::vector<const Figure *> &figs);

/** Default per-thread instruction budget for per-app figures. */
constexpr std::uint64_t kAppBudget = 40'000;

/** Reduced budget for the large design-space sweeps. */
constexpr std::uint64_t kSweepBudget = 15'000;

/** Apps of the widest sweeps: every other parallel app (eight),
 *  spanning the zero-rich and dense ends. */
inline Apps
sweepApps()
{
    const auto &all = workloads::parallelApps();
    Apps subset;
    for (std::size_t i = 0; i < all.size(); i += 2)
        subset.push_back(all[i]);
    return subset;
}

using Tweak = std::function<void(sim::SystemConfig &)>;

/** Append one point per app of @p apps: the baseline machine at
 *  @p budget instructions per thread, then @p tweak applied. */
inline void
addAppPoints(Points &pts, const Apps &apps, std::uint64_t budget,
             const Tweak &tweak = {})
{
    for (const auto &app : apps) {
        auto cfg = sim::baselineConfig(app);
        cfg.insts_per_thread = budget;
        if (tweak)
            tweak(cfg);
        pts.push_back(cfg);
    }
}

/** Points of @p apps under binary, then with zero-skipped DESC
 *  applied after @p tweak: laid out [scheme][app]. */
inline Points
binaryThenDesc(const Apps &apps, std::uint64_t budget,
               const Tweak &tweak = {})
{
    Points pts;
    addAppPoints(pts, apps, budget, tweak);
    addAppPoints(pts, apps, budget, [&](sim::SystemConfig &cfg) {
        if (tweak)
            tweak(cfg);
        sim::applyScheme(cfg, encoding::SchemeKind::DescZeroSkip);
    });
    return pts;
}

/** Every scheme at its best configuration (Figure 15), laid out
 *  [scheme][app] in allSchemeKinds() order: Fig. 16, 18 and 20. */
inline Points
schemePoints(const Apps &apps, std::uint64_t budget)
{
    Points pts;
    for (unsigned s = 0; s < encoding::kNumSchemes; s++) {
        auto kind = core::allSchemeKinds()[s];
        addAppPoints(pts, apps, budget, [kind](sim::SystemConfig &cfg) {
            sim::applyScheme(cfg, kind);
        });
    }
    return pts;
}

inline double
l2Energy(const sim::AppRun &run)
{
    return run.l2.total();
}

inline double
cycles(const sim::AppRun &run)
{
    return double(run.result.cycles);
}

/** @p metric summed over each consecutive slice of @p n runs (one
 *  series of a sweep), in order. */
template <typename Metric>
std::vector<double>
sliceSums(const Runs &runs, std::size_t n, Metric metric)
{
    std::vector<double> sums(runs.size() / n, 0.0);
    for (std::size_t i = 0; i < sums.size() * n; i++)
        sums[i / n] += metric(runs[i]);
    return sums;
}

/** @p metric of runs laid out [series][app] over @p napps apps, each
 *  divided by series 0 of the same app: the result is [series][app]. */
template <typename Metric>
std::vector<std::vector<double>>
normalizedToFirst(const Runs &runs, std::size_t napps, Metric metric)
{
    std::vector<std::vector<double>> norm(runs.size() / napps);
    for (std::size_t s = 0; s < norm.size(); s++)
        for (std::size_t a = 0; a < napps; a++)
            norm[s].push_back(metric(runs[s * napps + a])
                              / metric(runs[a]));
    return norm;
}

/** One row per app of @p apps holding each column of @p cols
 *  ([column][app]), then a Geomean row of every column. */
inline void
addAppRows(Table &t, const Apps &apps,
           const std::vector<std::vector<double>> &cols, int precision = 3)
{
    for (std::size_t a = 0; a < apps.size(); a++) {
        t.row().add(apps[a].name);
        for (const auto &col : cols)
            t.add(col[a], precision);
    }
    t.row().add("Geomean");
    for (const auto &col : cols)
        t.add(geomean(col), precision);
}

} // namespace desc::bench

#endif // DESC_BENCH_BENCHUTIL_HH
