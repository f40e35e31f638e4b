/**
 * @file
 * Figure 18: contribution of static and dynamic energy to the overall
 * L2 energy for every data-transfer technique, summed over the eight
 * sweep applications at the sweep budget and normalized to the binary
 * total. Paper: zero-skipped DESC halves dynamic energy while adding
 * ~3% static energy.
 */

#include <cstdio>

#include "benchutil.hh"

namespace desc::bench {

static Points
points()
{
    return schemePoints(sweepApps(), kSweepBudget);
}

static void
render(const Runs &runs)
{
    const std::size_t n = sweepApps().size();
    auto stat = sliceSums(runs, n, [](const sim::AppRun &r) {
        return r.l2.static_energy;
    });
    auto dyn = sliceSums(runs, n, [](const sim::AppRun &r) {
        return r.l2.dynamic();
    });
    double base_total = stat[0] + dyn[0];

    Table t({"scheme", "static (norm)", "dynamic (norm)",
             "total (norm)"});
    for (unsigned s = 0; s < encoding::kNumSchemes; s++) {
        t.row()
            .add(sim::shortSchemeName(core::allSchemeKinds()[s]))
            .add(stat[s] / base_total, 3)
            .add(dyn[s] / base_total, 3)
            .add((stat[s] + dyn[s]) / base_total, 3);
    }
    t.print("Figure 18: static/dynamic L2 energy, normalized to the "
            "binary total (paper: ZS-DESC halves dynamic, +3% static)");

    std::printf("ZS-DESC dynamic reduction: %.2fx (paper ~2x); "
                "static overhead: %+.1f%%\n",
                dyn[0] / dyn[6], 100.0 * (stat[6] / stat[0] - 1.0));
}

const Figure fig18_static_dynamic{"fig18_static_dynamic", points,
                                  render};

} // namespace desc::bench
