/**
 * @file
 * Figures 12 and 13, drawn from the same runs: the chunks moved
 * between the L2 cache controller and the data arrays by the sixteen
 * parallel applications on the baseline machine.
 *
 * Figure 12: distribution of the four-bit chunk values, pooled over
 * the applications. Paper: 31% zero chunks with a relatively uniform
 * non-zero tail.
 *
 * Figure 13: fraction of chunks that match the previously transmitted
 * chunk on the same wire, per application. Paper: 39% on average.
 */

#include <cstdio>

#include "benchutil.hh"

namespace desc::bench {

static Points
points()
{
    Points pts;
    addAppPoints(pts, workloads::parallelApps(), kAppBudget,
                 [](sim::SystemConfig &cfg) {
                     cfg.l2.collect_chunk_stats = true;
                 });
    return pts;
}

static void
renderValues(const Runs &runs)
{
    Histogram pooled(16);
    for (const auto &run : runs)
        pooled.merge(run.result.chunks.histogram());

    Table t({"chunk value", "frequency"});
    for (unsigned v = 0; v < 16; v++)
        t.row().add(std::uint64_t{v}).add(pooled.fraction(v), 4);
    t.print("Figure 12: distribution of transferred 4-bit chunk values "
            "(paper: value 0 at ~0.31)");

    std::printf("zero-chunk fraction: %.3f (paper ~0.31)\n",
                pooled.fraction(0));
}

static void
renderLocality(const Runs &runs)
{
    std::vector<double> fracs;
    for (const auto &run : runs)
        fracs.push_back(run.result.chunks.lastValueMatchFraction());
    Table t({"app", "matching fraction"});
    addAppRows(t, workloads::parallelApps(), {fracs});
    t.print("Figure 13: chunks matching the previous chunk on the same "
            "wire (paper avg ~0.39)");
}

const Figure fig12_chunk_values{"fig12_chunk_values", points,
                                renderValues};
const Figure fig13_value_locality{"fig13_value_locality", points,
                                  renderLocality};

} // namespace desc::bench
