/**
 * @file
 * Figures 23 and 24, drawn from the same runs: an 8MB S-NUCA-1 cache
 * (128 banks, 128-bit ports, statically routed, 3..13-cycle bank
 * access) with zero-skipped DESC, normalized to binary S-NUCA-1, for
 * each of the sixteen parallel applications.
 *
 * Figure 23: execution time. Paper: ~1% penalty.
 *
 * Figure 24: L2 energy. Paper: 1.62x cache energy reduction (1.64x
 * average power, 1.59x energy-delay).
 */

#include "benchutil.hh"

namespace desc::bench {

static Points
points()
{
    return binaryThenDesc(workloads::parallelApps(), kAppBudget,
                          [](sim::SystemConfig &cfg) {
                              cfg.l2.snuca = true;
                              cfg.l2.org.banks = 128;
                              cfg.l2.org.bus_wires = 128;
                              cfg.l2.scheme_cfg.bus_wires = 128;
                          });
}

static void
renderTime(const Runs &runs)
{
    const auto &apps = workloads::parallelApps();
    Table t({"app", "exec time (norm)"});
    addAppRows(t, apps, {normalizedToFirst(runs, apps.size(), cycles)[1]},
               4);
    t.print("Figure 23: S-NUCA-1 + zero-skipped DESC execution time, "
            "normalized to binary S-NUCA-1 (paper ~1.01)");
}

static void
renderEnergy(const Runs &runs)
{
    const auto &apps = workloads::parallelApps();
    auto e = normalizedToFirst(runs, apps.size(), l2Energy)[1];
    auto time = normalizedToFirst(runs, apps.size(), cycles)[1];
    std::vector<double> power, edp;
    for (std::size_t a = 0; a < apps.size(); a++) {
        power.push_back(e[a] / time[a]);
        edp.push_back(e[a] * time[a]);
    }
    Table t({"app", "L2 energy (norm)", "L2 power (norm)",
             "EDP (norm)"});
    addAppRows(t, apps, {e, power, edp});
    t.print("Figure 24: S-NUCA-1 + zero-skipped DESC L2 energy, "
            "normalized to binary S-NUCA-1 (paper: 1.62x energy, "
            "1.64x power, 1.59x EDP)");
}

const Figure fig23_snuca_time{"fig23_snuca_time", points, renderTime};
const Figure fig24_snuca_energy{"fig24_snuca_energy", points,
                                renderEnergy};

} // namespace desc::bench
