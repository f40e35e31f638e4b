/**
 * @file
 * Figure 22: cache design-space possibilities under conventional
 * binary and value-skipped DESC — L2 energy vs execution time, summed
 * over the eight sweep applications and normalized to the 8-bank /
 * 64-bit / binary baseline, while varying the data bus width, the
 * number of banks, and (for DESC) the chunk size. Paper: DESC opens
 * new design points with much lower energy at little extra delay.
 */

#include "benchutil.hh"

namespace desc::bench {

using encoding::SchemeKind;

struct Design
{
    SchemeKind kind;
    unsigned banks, wires, chunk;
};

/** The baseline, then every binary and every ZS-DESC design. */
static std::vector<Design>
designs()
{
    std::vector<Design> ds = {{SchemeKind::Binary, 8, 64, 4}};
    const unsigned bank_opts[] = {4, 8, 16};
    const unsigned wire_opts[] = {32, 64, 128, 256};
    for (unsigned banks : bank_opts)
        for (unsigned wires : wire_opts)
            ds.push_back(Design{SchemeKind::Binary, banks, wires, 4});
    for (unsigned banks : bank_opts)
        for (unsigned wires : wire_opts)
            for (unsigned chunk : {2u, 4u})
                ds.push_back(
                    Design{SchemeKind::DescZeroSkip, banks, wires, chunk});
    return ds;
}

static Points
points()
{
    Points pts;
    for (const Design &d : designs())
        addAppPoints(pts, sweepApps(), kSweepBudget,
                     [&d](sim::SystemConfig &cfg) {
                         sim::applyScheme(cfg, d.kind);
                         cfg.l2.org.banks = d.banks;
                         cfg.l2.org.bus_wires = d.wires;
                         cfg.l2.scheme_cfg.bus_wires = d.wires;
                         cfg.l2.scheme_cfg.chunk_bits = d.chunk;
                     });
    return pts;
}

static void
render(const Runs &runs)
{
    const auto ds = designs();
    auto energy = sliceSums(runs, sweepApps().size(), l2Energy);
    auto time = sliceSums(runs, sweepApps().size(), cycles);

    Table t({"scheme", "banks", "wires", "chunk", "L2 energy (norm)",
             "exec time (norm)"});
    for (std::size_t p = 1; p < ds.size(); p++) {
        const auto &d = ds[p];
        t.row()
            .add(d.kind == SchemeKind::Binary ? "Binary" : "ZS-DESC")
            .add(std::uint64_t{d.banks})
            .add(std::uint64_t{d.wires});
        if (d.kind == SchemeKind::Binary)
            t.add("-");
        else
            t.add(std::uint64_t{d.chunk});
        t.add(energy[p] / energy[0], 3).add(time[p] / time[0], 3);
    }
    t.print("Figure 22: design-space scatter, normalized to 8 banks / "
            "64-bit bus / binary (paper: DESC points cluster at lower "
            "energy, similar delay)");
}

const Figure fig22_design_scatter{"fig22_design_scatter", points,
                                  render};

} // namespace desc::bench
