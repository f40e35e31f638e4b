/**
 * @file
 * Figure 19: overall processor energy with zero-skipped DESC at the
 * L2, for each of the sixteen parallel applications, normalized to
 * binary encoding, split into the L2 and the other hardware units.
 * Paper: 7% processor energy saving.
 */

#include <cstdio>

#include "benchutil.hh"

namespace desc::bench {

static Points
points()
{
    return binaryThenDesc(workloads::parallelApps(), kAppBudget);
}

static void
render(const Runs &runs)
{
    const auto &apps = workloads::parallelApps();
    Table t({"app", "L2 share", "other units share", "total (norm)"});
    std::vector<double> totals;
    for (std::size_t a = 0; a < apps.size(); a++) {
        const auto &base = runs[a];
        const auto &with_desc = runs[apps.size() + a];
        double base_total = base.processor.total();
        double l2_share = with_desc.l2.total() / base_total;
        double other_share =
            (with_desc.processor.total() - with_desc.l2.total())
            / base_total;
        totals.push_back(l2_share + other_share);
        t.row()
            .add(apps[a].name)
            .add(l2_share, 3)
            .add(other_share, 3)
            .add(l2_share + other_share, 3);
    }
    t.row().add("Geomean").add("").add("").add(geomean(totals), 3);
    t.print("Figure 19: processor energy with zero-skipped DESC, "
            "normalized to binary (paper geomean ~0.93)");

    std::printf("processor energy saving: %.1f%% (paper ~7%%)\n",
                100.0 * (1.0 - geomean(totals)));
}

const Figure fig19_processor_energy{"fig19_processor_energy", points,
                                    render};

} // namespace desc::bench
