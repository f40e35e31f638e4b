/**
 * @file
 * Figures 1 and 2, drawn from the same runs: the sixteen parallel
 * applications on the baseline machine (8MB LSTP L2, conventional
 * binary encoding).
 *
 * Figure 1: L2 energy as a fraction of total processor energy.
 * Paper: ~15% on average.
 *
 * Figure 2: major components of the overall L2 energy — total static,
 * other (array/tag/aux) dynamic, and H-tree dynamic. Paper: H-tree
 * dynamic is ~80% on average.
 */

#include "benchutil.hh"

namespace desc::bench {

static Points
points()
{
    Points pts;
    addAppPoints(pts, workloads::parallelApps(), kAppBudget);
    return pts;
}

static void
renderFraction(const Runs &runs)
{
    std::vector<double> fracs;
    for (const auto &run : runs)
        fracs.push_back(run.l2.total() / run.processor.total());
    Table t({"app", "L2/processor energy"});
    addAppRows(t, workloads::parallelApps(), {fracs});
    t.print("Figure 1: L2 energy as a fraction of processor energy "
            "(paper avg ~0.15)");
}

static void
renderBreakdown(const Runs &runs)
{
    Table t({"app", "static", "other dynamic", "H-tree dynamic"});
    std::vector<double> htree_fracs;
    const auto &apps = workloads::parallelApps();
    for (std::size_t i = 0; i < apps.size(); i++) {
        const auto &e = runs[i].l2;
        double total = e.total();
        double htree = e.htree_dynamic / total;
        htree_fracs.push_back(htree);
        t.row()
            .add(apps[i].name)
            .add(e.static_energy / total, 3)
            .add((e.array_dynamic + e.aux_dynamic) / total, 3)
            .add(htree, 3);
    }
    t.row().add("Geomean").add("").add("").add(geomean(htree_fracs), 3);
    t.print("Figure 2: L2 energy breakdown (paper: H-tree dynamic "
            "~0.80 on average)");
}

const Figure fig01_l2_fraction{"fig01_l2_fraction", points,
                               renderFraction};
const Figure fig02_l2_breakdown{"fig02_l2_breakdown", points,
                                renderBreakdown};

} // namespace desc::bench
