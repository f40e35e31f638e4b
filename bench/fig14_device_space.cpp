/**
 * @file
 * Figure 14: design-space exploration over ITRS device types for the
 * SRAM cells and the peripheral circuitry (all nine cell-periphery
 * combinations at 8 banks, 64-bit bus), summed over the eight sweep
 * applications. Reports L2 energy, execution time, and total
 * processor energy, each normalized to the LSTP-LSTP configuration.
 * Paper: LSTP-LSTP minimizes both energies at a ~2% execution-time
 * cost over HP devices.
 */

#include <string>

#include "benchutil.hh"

namespace desc::bench {

using energy::Device;

const Device kDevices[3] = {Device::HP, Device::LOP, Device::LSTP};

static Points
points()
{
    Points pts;
    for (Device cell : kDevices)
        for (Device periph : kDevices)
            addAppPoints(pts, sweepApps(), kSweepBudget,
                         [=](sim::SystemConfig &cfg) {
                             cfg.l2.org.cell_dev = cell;
                             cfg.l2.org.periph_dev = periph;
                         });
    return pts;
}

static void
render(const Runs &runs)
{
    const std::size_t n = sweepApps().size();
    auto l2 = sliceSums(runs, n, l2Energy);
    auto time = sliceSums(runs, n, cycles);
    auto proc = sliceSums(runs, n, [](const sim::AppRun &run) {
        return run.processor.total();
    });

    const std::size_t base = l2.size() - 1; // LSTP-LSTP is the last combo
    Table t({"cells-periphery", "L2 energy (norm)", "exec time (norm)",
             "processor energy (norm)"});
    std::size_t c = 0;
    for (Device cell : kDevices) {
        for (Device periph : kDevices) {
            t.row()
                .add(std::string(energy::deviceName(cell)) + "-"
                     + energy::deviceName(periph))
                .add(l2[c] / l2[base], 2)
                .add(time[c] / time[base], 3)
                .add(proc[c] / proc[base], 2);
            c++;
        }
    }
    t.print("Figure 14: device design space, normalized to 8 banks / "
            "64-bit bus / LSTP-LSTP (paper: HP-HP L2 energy ~300x, "
            "exec time ~0.98)");
}

const Figure fig14_device_space{"fig14_device_space", points, render};

} // namespace desc::bench
