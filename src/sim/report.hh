/**
 * @file
 * Human-readable reporting of simulation results.
 */

#ifndef DESC_SIM_REPORT_HH
#define DESC_SIM_REPORT_HH

#include "sim/experiment.hh"

namespace desc::sim {

/** Print the full statistics and energy breakdown of one run. */
void printRunReport(const SystemConfig &cfg, const AppRun &run);

} // namespace desc::sim

#endif // DESC_SIM_REPORT_HH
