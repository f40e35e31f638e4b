#include "energy/cacti.hh"

#include <cmath>

#include "common/contract.hh"
#include "common/log.hh"

namespace desc::energy {

namespace {

/** Fraction of the die actually covered by cells (array efficiency). */
constexpr double kArrayEfficiency = 0.55;

/**
 * Peripheral transistor count as a fraction of the array transistor
 * count; used to scale peripheral leakage through periph_leak_factor.
 */
constexpr double kPeriphFraction = 0.25;

/** Decoder + sense + wordline energy overhead per block access,
 *  expressed as a multiple of the raw bitline read energy. */
constexpr double kAccessOverhead = 0.35;

/** Write energy relative to read energy (full bitline swing). */
constexpr double kWriteFactor = 1.25;

/** Fixed peripheral leakage per bank (decoders, port logic, the DESC
 *  or binary interface drivers) — what makes very high bank counts
 *  lose in Figure 25. */
constexpr double kPerBankLeakW = 80e-6;

/** Decode/select energy overhead growth with bank count. */
constexpr double kPerBankAccessOverhead = 0.012;

} // namespace

CacheEnergyModel::CacheEnergyModel(const CacheOrg &org,
                                   const TechParams &tech)
    : _org(org)
{
    DESC_ASSERT(org.banks > 0 && (org.banks & (org.banks - 1)) == 0,
                "banks must be a power of two: ", org.banks);
    DESC_ASSERT(org.capacity_bytes % (org.banks * org.block_bytes) == 0,
                "capacity not divisible by banks*block");
    DESC_ASSERT(org.bus_wires > 0, "bus_wires must be positive");

    const DeviceParams &cell = tech.device(org.cell_dev);
    const DeviceParams &periph = tech.device(org.periph_dev);

    const double total_bits = double(org.capacity_bytes) * 8.0;
    const double bank_bits = total_bits / org.banks;

    // ---- Floorplan ----------------------------------------------------
    // Cells plus array overhead give the bank area; banks tile in a
    // near-square grid, and the main H-tree spans that grid.
    _geom.bank_area_mm2 =
        bank_bits * cell.cell_area_um2 / kArrayEfficiency * 1e-6;
    _geom.total_area_mm2 = _geom.bank_area_mm2 * org.banks;

    const double die_side_mm = std::sqrt(_geom.total_area_mm2);
    const double bank_side_mm = std::sqrt(_geom.bank_area_mm2);

    // Average path from the cache controller to an active mat: half of
    // the main tree span plus the bank-internal horizontal + vertical
    // trees (Figure 7 of the paper).
    _geom.htree_path_mm = 0.5 * die_side_mm + 1.5 * bank_side_mm;

    // A mat holds a 64-bit slice of the block (Figure 6): a 512-bit
    // block activates 8 mats.
    _geom.mats_per_bank = 8;

    // ---- Energy -------------------------------------------------------
    WireModel htree_wire(tech, _geom.htree_path_mm,
                         org.low_swing ? org.swing_v : 0.0);
    _htree_flip = htree_wire.flipEnergy();

    const unsigned block_bits = org.block_bytes * 8;
    const double read_bits_fj = cell.cell_read_fj * block_bits;
    const double access_overhead =
        kAccessOverhead + kPerBankAccessOverhead * org.banks;
    _array_read = read_bits_fj * (1.0 + access_overhead) * 1e-15;
    _array_write = _array_read * kWriteFactor;

    // Tags: assoc ways of ~24 tag+state bits read per lookup.
    const double tag_bits = org.assoc * 24.0;
    _tag_access = cell.cell_read_fj * tag_bits * (1.0 + kAccessOverhead)
        * 1e-15;

    // Address/control: ~32 wires, conventional binary, roughly half
    // toggle per transfer, over the same H-tree path.
    _addr_transfer = _htree_flip * 16.0;

    // Leakage: array cells use the cell device; periphery transistor
    // budget is a fixed fraction of the array but leaks according to
    // the periphery device (this is what makes the HP-periphery design
    // points in Figure 14 so expensive).
    const double array_leak_w = total_bits * cell.cell_leak_nw * 1e-9;
    const double periph_leak_w = total_bits * kPeriphFraction
        * periph.cell_leak_nw * periph.periph_leak_factor * 1e-9;
    _leak_power = array_leak_w + periph_leak_w
        + org.banks * kPerBankLeakW;

    // ---- Timing -------------------------------------------------------
    const double cycle_ps = 1000.0 / org.clock_ghz;
    _flight_cycles = std::max<unsigned>(
        1, unsigned(std::ceil(htree_wire.delayPs() / cycle_ps)));

    // Array access: decode + wordline + bitline + sense; HP arrays are
    // the reference, LSTP roughly doubles it (paper footnote 3).
    const double array_ps = 250.0 * cell.access_time_factor;
    const unsigned array_cycles = std::max<unsigned>(
        1, unsigned(std::ceil(array_ps / cycle_ps)));

    // Controller decode/queue + request flight + array + reply flight.
    const unsigned ctrl_cycles = 2;
    _hit_latency =
        ctrl_cycles + _flight_cycles + array_cycles + _flight_cycles;
}

} // namespace desc::energy
