/**
 * @file
 * CACTI-lite: first-order geometry, energy, and timing model of a
 * banked SRAM last-level cache with an H-tree data network.
 *
 * This stands in for the modified CACTI 6.5 the paper uses. It derives
 * a floorplan (banks -> subbanks -> mats) from the organization, sizes
 * the main / horizontal / vertical H-trees from that floorplan, and
 * exposes the per-event energies the simulator integrates:
 *
 *   - htreeFlipEnergy(): one transition on one data wire over the
 *     controller-to-mat path (what every encoding scheme multiplies
 *     by its transition count);
 *   - arrayReadEnergy()/arrayWriteEnergy(): reading/writing one cache
 *     block out of / into the mats;
 *   - tagAccessEnergy(): one tag lookup;
 *   - leakagePower(): standby power of cells plus periphery;
 *   - hit/flight latencies in core cycles.
 */

#ifndef DESC_ENERGY_CACTI_HH
#define DESC_ENERGY_CACTI_HH

#include "common/types.hh"
#include "energy/tech.hh"
#include "energy/wire.hh"

namespace desc::energy {

/** Organization of the modeled last-level cache. */
struct CacheOrg
{
    std::uint64_t capacity_bytes = 8ull << 20;
    unsigned assoc = 16;
    unsigned block_bytes = 64;
    unsigned banks = 8;

    /** Data wires per bank port (the paper sweeps 8..512). */
    unsigned bus_wires = 64;

    double clock_ghz = 3.2;

    /** Low-swing H-tree data wires (Section 2's alternative
     *  interconnect style; composes with any encoding). */
    bool low_swing = false;
    double swing_v = 0.25;

    Device cell_dev = Device::LSTP;
    Device periph_dev = Device::LSTP;
};

/** Derived floorplan quantities (exposed for tests and reports). */
struct CacheGeometry
{
    double total_area_mm2;
    double bank_area_mm2;

    /** Average controller-to-mat wire path (main + bank-local trees). */
    double htree_path_mm;

    unsigned mats_per_bank;
};

class CacheEnergyModel
{
  public:
    explicit CacheEnergyModel(const CacheOrg &org,
                              const TechParams &tech = tech22());

    const CacheOrg &org() const { return _org; }
    const CacheGeometry &geometry() const { return _geom; }

    /** Energy of one transition on one H-tree data wire. */
    Joule htreeFlipEnergy() const { return _htree_flip; }

    /** Dynamic energy of reading one block out of the data mats. */
    Joule arrayReadEnergy() const { return _array_read; }

    /** Dynamic energy of writing one block into the data mats. */
    Joule arrayWriteEnergy() const { return _array_write; }

    /** Dynamic energy of one tag lookup (all ways of one set). */
    Joule tagAccessEnergy() const { return _tag_access; }

    /** Dynamic energy of driving the address/control wires once. */
    Joule addressTransferEnergy() const { return _addr_transfer; }

    /** Total standby (leakage) power of the cache. */
    Watt leakagePower() const { return _leak_power; }

    /**
     * Cache hit latency in core cycles excluding data serialization
     * on the bus (the simulator adds the scheme-dependent transfer
     * window on top of this).
     */
    unsigned hitLatencyCycles() const { return _hit_latency; }

    /** One-way H-tree flight time in core cycles. */
    unsigned htreeFlightCycles() const { return _flight_cycles; }

  private:
    CacheOrg _org;
    CacheGeometry _geom;

    Joule _htree_flip;
    Joule _array_read;
    Joule _array_write;
    Joule _tag_access;
    Joule _addr_transfer;
    Watt _leak_power;
    unsigned _hit_latency;
    unsigned _flight_cycles;
};

} // namespace desc::energy

#endif // DESC_ENERGY_CACTI_HH
