/**
 * @file
 * Periodic stat time-series snapshots.
 *
 * DESC_STATS_EVERY=<cycles> makes runSystem() pause the event queue
 * at every multiple of <cycles> of simulated time and record a row:
 * the run's label, then every Counter, integer and double field of
 * the AppRun list (forEachField in sim/experiment.hh) in list order,
 * each under its sidecar path. perf.cycles is the snapshot cycle, and
 * the energy.* columns come from the same accounting step a finished
 * run takes (withEnergy), so energy by domain, wire flips and misses
 * can be plotted over simulated time instead of only as end-of-run
 * totals.
 *
 * Snapshots fall on event-queue boundaries (all events at cycles <=
 * the snapshot point have run), so the rows are deterministic and the
 * simulation result is bit-identical with and without the knob: the
 * segmented run schedules no events and never advances time past the
 * natural quiescence point.
 *
 * Rows are written once at process exit (an ExitWriter, see
 * sim/statdump.hh) sorted by (run label, cycle), so parallel sweeps
 * produce a deterministic CSV. The file lands next to the
 * DESC_STATS_OUT sidecar (its extension replaced with
 * ".timeseries.csv"), or at ./desc-timeseries.csv when DESC_STATS_OUT
 * is unset. It is opened at startup when DESC_STATS_EVERY is set, and
 * a path that cannot be opened is fatal before any run.
 */

#ifndef DESC_SIM_TIMESERIES_HH
#define DESC_SIM_TIMESERIES_HH

#include <cstdint>
#include <string>

#include "sim/experiment.hh"

namespace desc::sim::timeseries {

/**
 * Parse a DESC_STATS_EVERY-style spec into a snapshot period in
 * cycles; null or "" means disabled (0). Zero, negative, garbage, or
 * out-of-range values (above kMaxEvery) are fatal.
 */
std::uint64_t parseEverySpec(const char *spec);

/** Upper bound on the snapshot period. */
constexpr std::uint64_t kMaxEvery = 1'000'000'000'000'000ULL;

/** The live snapshot period: the test override if set, else the
 *  parsed DESC_STATS_EVERY. 0 disables snapshots. */
std::uint64_t everyCycles();

/** Buffer one snapshot of the run labelled @p run_label; all values
 *  are cumulative since run start (thread-safe). */
void record(const std::string &run_label, const AppRun &snapshot);

/** Override the snapshot period; 0 disables snapshots. The override
 *  wins over DESC_STATS_EVERY until the process exits. */
void setEveryForTest(std::uint64_t every);

/** The CSV the buffered rows would make now (tests). */
std::string csvForTest();

/** Drop all buffered rows (tests). */
void resetForTest();

} // namespace desc::sim::timeseries

#endif // DESC_SIM_TIMESERIES_HH
