/**
 * @file
 * Figure 26: sensitivity of zero-skipped DESC to the chunk size (1,
 * 2, 4, 8 bits) across data bus widths (32..256 wires): L2 energy and
 * execution time, summed over the eight sweep applications and
 * normalized to the binary baseline. Paper: 4-bit chunks with 128
 * wires give the best energy-delay product.
 */

#include <cstdio>
#include <string>

#include "benchutil.hh"

namespace desc::bench {

const unsigned kChunks[] = {1, 2, 4, 8};
const unsigned kWires[] = {32, 64, 128, 256};

/** The binary baseline, then every (chunk, wires, app) point. */
static Points
points()
{
    Points pts;
    addAppPoints(pts, sweepApps(), kSweepBudget);
    for (unsigned chunk : kChunks)
        for (unsigned wires : kWires)
            addAppPoints(pts, sweepApps(), kSweepBudget,
                         [=](sim::SystemConfig &cfg) {
                             sim::applyScheme(
                                 cfg, encoding::SchemeKind::DescZeroSkip);
                             cfg.l2.org.bus_wires = wires;
                             cfg.l2.scheme_cfg.bus_wires = wires;
                             cfg.l2.scheme_cfg.chunk_bits = chunk;
                         });
    return pts;
}

static void
render(const Runs &runs)
{
    auto energy = sliceSums(runs, sweepApps().size(), l2Energy);
    auto time = sliceSums(runs, sweepApps().size(), cycles);

    Table t({"chunk bits", "wires", "L2 energy (norm)",
             "exec time (norm)", "EDP (norm)"});
    double best_edp = 1e30;
    std::string best_cfg;
    std::size_t next = 1; // slice 0 is the binary baseline
    for (unsigned chunk : kChunks) {
        for (unsigned wires : kWires) {
            double en = energy[next] / energy[0];
            double tn = time[next++] / time[0];
            double edp = en * tn;
            if (edp < best_edp) {
                best_edp = edp;
                best_cfg = std::to_string(chunk) + "-bit chunks, "
                    + std::to_string(wires) + " wires";
            }
            t.row().add(std::uint64_t{chunk}).add(std::uint64_t{wires})
                .add(en, 3).add(tn, 3).add(edp, 3);
        }
    }
    t.print("Figure 26: zero-skipped DESC chunk-size sensitivity, "
            "normalized to binary (paper best: 4-bit chunks, 128 "
            "wires)");
    std::printf("best energy-delay product: %s\n", best_cfg.c_str());
}

const Figure fig26_chunk_size{"fig26_chunk_size", points, render};

} // namespace desc::bench
