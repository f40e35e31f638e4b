/**
 * @file
 * Periodic stat time-series snapshots.
 *
 * DESC_STATS_EVERY=<cycles> makes runSystem() pause the event queue
 * at every multiple of <cycles> of simulated time and record a row of
 * selected counters (instructions, L2 hits/misses, wire flips, DRAM
 * traffic), so energy/toggle/miss curves can be plotted over
 * simulated time instead of only as end-of-run totals.
 *
 * Snapshots fall on event-queue boundaries (all events at cycles <=
 * the snapshot point have run), so the rows are deterministic and the
 * simulation result is bit-identical with and without the knob: the
 * segmented run schedules no events and never advances time past the
 * natural quiescence point.
 *
 * Rows are buffered and written once at process exit, sorted by
 * (run label, cycle, sequence), so parallel sweeps produce a
 * deterministic CSV. The file lands next to the DESC_STATS_OUT
 * sidecar (its extension replaced with ".timeseries.csv"), or at
 * ./desc-timeseries.csv when DESC_STATS_OUT is unset. It is opened
 * at startup when DESC_STATS_EVERY is set, and a path that cannot be
 * opened is fatal before any run.
 */

#ifndef DESC_SIM_TIMESERIES_HH
#define DESC_SIM_TIMESERIES_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

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

/** One snapshot row; all values are cumulative since run start. */
struct Row
{
    Cycle cycle = 0;
    std::uint64_t instructions = 0;
    std::uint64_t l2_hits = 0;
    std::uint64_t l2_misses = 0;
    std::uint64_t read_transfers = 0;
    std::uint64_t write_transfers = 0;
    double data_flips = 0;
    double ctrl_flips = 0;
    std::uint64_t dram_reads = 0;
    std::uint64_t dram_writes = 0;
};

/** Buffer one row (thread-safe; flushed at process exit). */
void record(const std::string &run_label, const Row &row);

/** Resolved output path for the CSV. */
std::string csvPath();

/** Override the snapshot period; 0 disables snapshots. The override
 *  wins over DESC_STATS_EVERY until the process exits. */
void setEveryForTest(std::uint64_t every);

/** Redirect flushForTest()'s CSV ("" restores the default path
 *  derivation); the exit-time flush writes the file opened at
 *  startup. */
void setPathForTest(const std::string &path);

/** Write the buffered rows to csvPath() now (tests). */
void flushForTest();

/** Drop all buffered rows (tests). */
void resetForTest();

} // namespace desc::sim::timeseries

#endif // DESC_SIM_TIMESERIES_HH
