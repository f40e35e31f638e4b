/**
 * @file
 * Ablation (Sections 1-2): DESC composes with low-swing interconnect.
 *
 * The paper argues that activity-factor techniques like DESC are
 * "broadly applicable since they can be used on interconnects with
 * different characteristics (e.g., transmission lines or low-swing
 * wires)". This harness runs binary and zero-skipped DESC on both
 * full-swing and low-swing H-trees, summed over the eight sweep
 * applications: low-swing cuts the per-transition cost, and DESC still
 * removes the same fraction of transitions on top of it.
 */

#include <cstdio>

#include "benchutil.hh"

namespace desc::bench {

/** Binary and ZS-DESC on full-swing, then on low-swing wires. */
static Points
points()
{
    Points pts;
    for (bool low_swing : {false, true})
        for (const auto &cfg :
             binaryThenDesc(sweepApps(), kSweepBudget,
                            [=](sim::SystemConfig &c) {
                                c.l2.org.low_swing = low_swing;
                            }))
            pts.push_back(cfg);
    return pts;
}

static void
render(const Runs &runs)
{
    auto energy = sliceSums(runs, sweepApps().size(), l2Energy);
    auto time = sliceSums(runs, sweepApps().size(), cycles);
    Table t({"interconnect", "scheme", "L2 energy (norm)",
             "exec time (norm)"});
    for (std::size_t i = 0; i < 4; i++)
        t.row()
            .add(i < 2 ? "full-swing" : "low-swing")
            .add(i % 2 ? "ZS-DESC" : "Binary")
            .add(energy[i] / energy[0], 3)
            .add(time[i] / time[0], 3);
    t.print("Ablation: DESC on full-swing vs low-swing H-trees, "
            "normalized to full-swing binary");

    std::printf("DESC reduction on full-swing wires: %.2fx; on "
                "low-swing wires: %.2fx (composes: %s)\n",
                energy[0] / energy[1], energy[2] / energy[3],
                energy[2] / energy[3] > 1.2 ? "yes" : "NO");
}

const Figure ablation_low_swing{"ablation_low_swing", points, render};

} // namespace desc::bench
