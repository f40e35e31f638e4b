#include "energy/wire.hh"

#include <cmath>

#include "common/contract.hh"
#include "common/log.hh"

namespace desc::energy {

WireModel::WireModel(const TechParams &tech, double length_mm,
                     double swing_v)
{
    DESC_ASSERT(length_mm >= 0.0, "negative wire length");
    DESC_ASSERT(swing_v >= 0.0 && swing_v < tech.vdd,
                "swing must be below Vdd");
    double cap_f = tech.wire_cap_ff_per_mm * 1e-15 * length_mm
        * (1.0 + tech.repeater_cap_overhead);
    if (swing_v == 0.0) {
        // Full-swing repeatered wire.
        _flip_energy = 0.5 * cap_f * tech.vdd * tech.vdd
            + tech.wire_driver_fj * 1e-15;
        _delay_ps = tech.wire_delay_ps_per_mm * length_mm;
    } else {
        // Low-swing: wire charges to swing_v from the Vdd supply
        // (E ~ C * Vdd * Vswing), plus a sense-amp resolution cost at
        // the receiver; propagation is ~30% slower (no repeaters).
        const double sense_amp_fj = 25.0;
        _flip_energy = 0.5 * cap_f * tech.vdd * swing_v
            + (tech.wire_driver_fj + sense_amp_fj) * 1e-15;
        _delay_ps = tech.wire_delay_ps_per_mm * length_mm * 1.3;
    }
}

unsigned
WireModel::delayCycles(double clock_ghz) const
{
    DESC_ASSERT(clock_ghz > 0.0, "bad clock");
    double cycle_ps = 1000.0 / clock_ghz;
    return static_cast<unsigned>(std::ceil(_delay_ps / cycle_ps));
}

} // namespace desc::energy
