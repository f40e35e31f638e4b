/**
 * @file
 * Figure 15: L2 energy of the baseline encodings as a function of the
 * data segment size (4..64 bits), summed over the eight sweep
 * applications and normalized to conventional binary. The best
 * configuration of each scheme (the paper's stars) is chosen as its
 * baseline for the later comparisons.
 */

#include <string>

#include "benchutil.hh"

namespace desc::bench {

using encoding::SchemeKind;

const SchemeKind kSchemes[] = {
    SchemeKind::DynamicZeroCompression,
    SchemeKind::BusInvert,
    SchemeKind::ZeroSkipBusInvert,
    SchemeKind::EncodedZeroSkipBusInvert,
};
const unsigned kSegments[] = {64, 32, 16, 8, 4};

/** The binary reference, then every (scheme, segment, app) point. */
static Points
points()
{
    Points pts;
    addAppPoints(pts, sweepApps(), kSweepBudget);
    for (SchemeKind kind : kSchemes)
        for (unsigned seg : kSegments)
            addAppPoints(pts, sweepApps(), kSweepBudget,
                         [=](sim::SystemConfig &cfg) {
                             sim::applyScheme(cfg, kind);
                             cfg.l2.scheme_cfg.segment_bits = seg;
                         });
    return pts;
}

static void
render(const Runs &runs)
{
    auto energy = sliceSums(runs, sweepApps().size(), l2Energy);
    std::size_t next = 1; // slice 0 is the binary reference

    Table t({"scheme", "64-bit", "32-bit", "16-bit", "8-bit", "4-bit",
             "best"});
    for (SchemeKind kind : kSchemes) {
        t.row().add(sim::shortSchemeName(kind));
        double best = 1e30;
        unsigned best_seg = 0;
        std::vector<double> cells;
        for (unsigned seg : kSegments) {
            double norm = energy[next++] / energy[0];
            cells.push_back(norm);
            if (norm < best) {
                best = norm;
                best_seg = seg;
            }
        }
        for (double c : cells)
            t.add(c, 3);
        t.add(std::to_string(best_seg) + "-bit *");
    }
    t.print("Figure 15: L2 energy vs segment size, normalized to "
            "binary encoding (stars mark each scheme's best)");
}

const Figure fig15_segment_sweep{"fig15_segment_sweep", points, render};

} // namespace desc::bench
