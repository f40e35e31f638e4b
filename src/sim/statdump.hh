/**
 * @file
 * Machine-readable statistic dumps.
 *
 * buildRunRegistry() lays every number a finished run produced — raw
 * activity counters, derived rates, and the energy breakdowns — into
 * one StatRegistry tree; printRunReport() renders its table from that
 * registry, and the JSON/CSV writers here serialize the same tree, so
 * the human-readable and machine-readable views can never disagree.
 *
 * Set DESC_STATS_OUT=<path> to make every harness write a sidecar
 * file of all runs it executed (including run-cache hits): JSON by
 * default, or a flat run,path,value CSV when the path ends in ".csv".
 * The file is opened at startup (a path that cannot be opened is
 * fatal before any run) and written at process exit.
 */

#ifndef DESC_SIM_STATDUMP_HH
#define DESC_SIM_STATDUMP_HH

#include <cstdint>
#include <iosfwd>

#include "common/stats.hh"
#include "sim/experiment.hh"

namespace desc::sim {

/**
 * Register every statistic of one finished run under dotted paths
 * (run.*, perf.*, l1.*, l2.*, link.*, chunks.*, dram.*, energy.*).
 * The registry references stat objects inside @p run, which must
 * outlive it.
 */
StatRegistry buildRunRegistry(const SystemConfig &cfg, const AppRun &run,
                              std::uint64_t config_hash);

/**
 * Serialize @p reg as a nested JSON object (dotted path segments
 * become nested objects). @p indent is the base indentation level of
 * the opening brace, in two-space steps.
 */
void writeRegistryJson(std::ostream &os, const StatRegistry &reg,
                       unsigned indent = 0);

/**
 * Serialize @p reg as flat CSV rows `<run>,<path>,<value>` (composite
 * stats flatten to .mean/.count/... subpaths). No header row.
 */
void writeRegistryCsv(std::ostream &os, const StatRegistry &reg,
                      const std::string &run_label);

/** True when DESC_STATS_OUT requests a stats sidecar file. */
bool statsSidecarEnabled();

/**
 * Record one executed run for the sidecar (no-op unless enabled).
 * Thread-safe; the file is written once at process exit with runs
 * ordered by (app, config hash, record sequence), so parallel sweeps
 * produce deterministic sidecars.
 */
void recordRunStats(const SystemConfig &cfg, const AppRun &run,
                    std::uint64_t config_hash);

} // namespace desc::sim

#endif // DESC_SIM_STATDUMP_HH
