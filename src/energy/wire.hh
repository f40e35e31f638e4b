/**
 * @file
 * First-order repeatered-wire energy and delay model.
 */

#ifndef DESC_ENERGY_WIRE_HH
#define DESC_ENERGY_WIRE_HH

#include "common/types.hh"
#include "energy/tech.hh"

namespace desc::energy {

/**
 * Models one repeatered on-chip wire of a given length. Energy per
 * transition is 1/2 C V^2 with C covering the wire plus its repeaters;
 * delay is linear in length thanks to the repeaters.
 */
class WireModel
{
  public:
    /**
     * @param swing_v reduced voltage swing (0 = full rail-to-rail).
     *        Low-swing signaling charges the wire to swing_v instead
     *        of Vdd (energy ~ C*Vdd*Vswing) but needs a sense
     *        amplifier at the receiver and is ~30% slower — the
     *        alternative interconnect style the paper's Section 2
     *        cites; DESC composes with it (see ablation_low_swing).
     */
    WireModel(const TechParams &tech, double length_mm,
              double swing_v = 0.0);

    /** Energy of one full-swing transition on this wire. */
    Joule flipEnergy() const { return _flip_energy; }

    /** End-to-end propagation delay (ps). */
    double delayPs() const { return _delay_ps; }

    /** Propagation delay in cycles of a clock at @p clock_ghz. */
    unsigned delayCycles(double clock_ghz) const;

  private:
    Joule _flip_energy;
    double _delay_ps;
};

} // namespace desc::energy

#endif // DESC_ENERGY_WIRE_HH
