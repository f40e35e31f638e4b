/**
 * @file
 * Figure 17: synthesis results — area, peak power, and logic delay of
 * the DESC transmitter and receiver, each comprising 128 chunk units,
 * at 22 nm (scaled from the 45 nm FreePDK synthesis via Table 3).
 * Paper: ~2120 um^2 per mat interface, 46 mW peak for a TX+RX pair,
 * 625 ps added to the round-trip access.
 */

#include <cstdio>

#include "benchutil.hh"
#include "energy/synthesis.hh"

namespace desc::bench {

using namespace energy;

static void
render(const Runs &)
{
    DescSynthesisModel m22(128, 4, tech22());
    DescSynthesisModel m45(128, 4, tech45());

    Table t({"node", "unit", "area (um^2)", "peak power (mW)",
             "delay (ns)"});
    auto add = [&](const char *node, const char *unit,
                   const SynthesisResult &r) {
        t.row().add(node).add(unit).add(r.area_um2, 0)
            .add(r.peak_power_mw, 1).add(r.delay_ns, 3);
    };
    add("45nm", "transmitter", m45.transmitter());
    add("45nm", "receiver", m45.receiver());
    add("22nm", "transmitter", m22.transmitter());
    add("22nm", "receiver", m22.receiver());
    t.print("Figure 17: DESC interface synthesis (128 chunks)");

    std::printf("22nm TX+RX peak power: %.1f mW (paper 46 mW)\n",
                m22.transmitter().peak_power_mw
                    + m22.receiver().peak_power_mw);
    std::printf("22nm round-trip logic delay: %.0f ps (paper 625 ps)\n",
                m22.roundTripDelayNs() * 1e3);
}

const Figure fig17_synthesis{"fig17_synthesis", nullptr, render};

} // namespace desc::bench
