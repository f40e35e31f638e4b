/**
 * @file
 * Figure 25: sensitivity of zero-skipped DESC to the number of L2
 * banks (1..64): execution time and L2 energy, summed over the eight
 * sweep applications and normalized to the 8-bank binary baseline.
 * Paper: big improvement from 1 to 2 banks, minimum around 8, worse
 * beyond due to per-bank overheads.
 */

#include "benchutil.hh"

namespace desc::bench {

const unsigned kBanks[] = {1, 2, 4, 8, 16, 32, 64};

/** The 8-bank binary baseline, then ZS-DESC at every bank count. */
static Points
points()
{
    Points pts;
    addAppPoints(pts, sweepApps(), kSweepBudget);
    for (unsigned banks : kBanks)
        addAppPoints(pts, sweepApps(), kSweepBudget,
                     [=](sim::SystemConfig &cfg) {
                         sim::applyScheme(
                             cfg, encoding::SchemeKind::DescZeroSkip);
                         cfg.l2.org.banks = banks;
                     });
    return pts;
}

static void
render(const Runs &runs)
{
    auto energy = sliceSums(runs, sweepApps().size(), l2Energy);
    auto time = sliceSums(runs, sweepApps().size(), cycles);
    Table t({"banks", "exec time (norm)", "L2 energy (norm)"});
    for (std::size_t b = 0; b < std::size(kBanks); b++)
        t.row().add(std::uint64_t{kBanks[b]})
            .add(time[b + 1] / time[0], 3)
            .add(energy[b + 1] / energy[0], 3);
    t.print("Figure 25: zero-skipped DESC vs bank count, normalized "
            "to the 8-bank binary baseline (paper: best around 8 "
            "banks)");
}

const Figure fig25_banks{"fig25_banks", points, render};

} // namespace desc::bench
