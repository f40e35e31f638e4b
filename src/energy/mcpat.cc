#include "energy/mcpat.hh"

namespace desc::energy {

ProcessorPowerModel::ProcessorPowerModel(unsigned num_cores, CoreKind kind,
                                         double clock_ghz)
    : _num_cores(num_cores), _kind(kind)
{
    (void)clock_ghz;
    // Calibrated so an 8-core in-order SMT processor with an 8MB LSTP
    // L2 spends ~15% of its energy in the L2 (paper Figure 1). A
    // 4-issue out-of-order core burns roughly 3x the energy per
    // instruction of the simple in-order core (rename/issue/ROB).
    if (kind == CoreKind::InOrderSMT) {
        _epi_pj = 11.0;
        _core_leak_w = 0.015;
    } else {
        _epi_pj = 34.0;
        _core_leak_w = 0.060;
    }
    _l1_access_pj = 9.0;
    _uncore_w = 0.040;
    _uncore_pj = 25.0;
}

ProcessorEnergy
ProcessorPowerModel::evaluate(const ProcessorActivity &activity,
                              Joule l2_energy) const
{
    ProcessorEnergy e;
    e.core_dynamic = double(activity.instructions) * _epi_pj * 1e-12;
    e.core_static = _num_cores * _core_leak_w * activity.runtime_s;
    e.l1 = double(activity.l1i_accesses + activity.l1d_accesses)
        * _l1_access_pj * 1e-12;
    e.uncore = _uncore_w * activity.runtime_s
        + double(activity.l2_accesses) * _uncore_pj * 1e-12;
    e.l2 = l2_energy;
    return e;
}

} // namespace desc::energy
