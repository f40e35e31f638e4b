/**
 * @file
 * Figure 21: average L2 hit delay (cycles) under conventional binary
 * encoding and zero-skipped DESC on 64- and 128-wire data buses, for
 * each of the sixteen parallel applications. Paper: DESC adds 31.2
 * cycles at 64 wires and 8.45 at 128 wires (10% / 2% slowdowns).
 */

#include "benchutil.hh"

namespace desc::bench {

using encoding::SchemeKind;

static Points
points()
{
    Points pts;
    for (SchemeKind kind : {SchemeKind::Binary, SchemeKind::DescZeroSkip})
        for (unsigned wires : {64u, 128u})
            addAppPoints(pts, workloads::parallelApps(), kAppBudget,
                         [=](sim::SystemConfig &cfg) {
                             sim::applyScheme(cfg, kind);
                             cfg.l2.org.bus_wires = wires;
                             cfg.l2.scheme_cfg.bus_wires = wires;
                         });
    return pts;
}

static void
render(const Runs &runs)
{
    const auto &apps = workloads::parallelApps();
    Table t({"app", "64-bit Binary", "128-bit Binary", "64-bit DESC",
             "128-bit DESC"});
    std::vector<double> sums(4, 0.0);
    for (std::size_t a = 0; a < apps.size(); a++) {
        t.row().add(apps[a].name);
        for (std::size_t b = 0; b < sums.size(); b++) {
            double delay = runs[b * apps.size() + a].result.avgHitDelay();
            sums[b] += delay;
            t.add(delay, 2);
        }
    }
    t.row().add("Average");
    for (double sum : sums)
        t.add(sum / double(apps.size()), 2);
    t.print("Figure 21: average L2 hit delay in cycles (paper: DESC "
            "adds ~31.2 at 64 wires, ~8.45 at 128 wires)");
}

const Figure fig21_hit_delay{"fig21_hit_delay", points, render};

} // namespace desc::bench
