/**
 * @file
 * On-disk memoization of simulated experiment points.
 *
 * Every (application, configuration) data point the figure harnesses
 * evaluate is fully determined by its SystemConfig — simulations are
 * deterministically seeded — so finished AppRuns are serialized to a
 * small binary file keyed by a content hash of the complete scaled
 * configuration. Re-running a harness (or a different harness that
 * shares points) loads the unchanged points instead of re-simulating
 * them. Any config change, including DESC_SIM_SCALE via the scaled
 * instruction budget, changes the key and naturally invalidates the
 * entry; stale entries are simply never referenced again.
 *
 * The key and the entry are loops over the forEachField lists of
 * SystemConfig (sim/system.hh) and AppRun (sim/experiment.hh). An
 * entry ends in a checksum; one that fails to decode is reported once
 * by name and treated as a miss, so the point is simulated again.
 *
 * Environment (DESC_SIM_CACHE is resolved at startup, so a bad value
 * is fatal before any run):
 *  - DESC_SIM_CACHE=0 disables the cache entirely (strict 0/1);
 *  - DESC_SIM_CACHE_DIR overrides the location (default
 *    ".desc-runcache" under the current directory). The directory is
 *    created when the first point is submitted, on the submitting
 *    thread, and one that cannot be created is fatal; a process that
 *    runs no point creates none.
 *
 * All entry points are thread-safe; the parallel Runner calls them
 * from every worker.
 */

#ifndef DESC_SIM_RUNCACHE_HH
#define DESC_SIM_RUNCACHE_HH

#include <cstdint>
#include <optional>
#include <string>

#include "common/stats.hh"
#include "sim/experiment.hh"

namespace desc::sim {

/**
 * Content hash of the full configuration: every field that can change
 * a simulation's outcome, including the post-DESC_SIM_SCALE
 * instruction budget, plus a format-version salt so serialization
 * layout changes invalidate old caches.
 */
std::uint64_t configHash(const SystemConfig &cfg);

/** app/scheme#<@p key as 16 hex digits>, @p key = configHash(cfg):
 *  the run column of the time series and the run tag of trace
 *  lines. */
std::string runLabel(const SystemConfig &cfg, std::uint64_t key);

/** A directory of serialized AppRuns keyed by configHash(). */
class RunCache
{
  public:
    /** Cache rooted at @p dir, created if missing (fatal when it
     *  cannot be); an empty dir disables the cache. */
    explicit RunCache(std::string dir);

    bool enabled() const { return !_dir.empty(); }
    const std::string &dir() const { return _dir; }

    /** Load the entry for @p key; nullopt when it is absent, or
     *  (with a warning naming the file) corrupt. */
    std::optional<AppRun> load(std::uint64_t key) const;

    /** Persist @p run under @p key (atomic: write + rename). False
     *  when the cache is disabled or the entry could not be written;
     *  a failure warns once, naming the entry, and leaves no temp
     *  file behind. */
    bool store(std::uint64_t key, const AppRun &run) const;

  private:
    std::string path(std::uint64_t key) const;

    std::string _dir;
};

/** The process-wide cache every cached run goes through, resolved
 *  from the environment on the first call (see file comment). */
RunCache globalRunCache();

/** Repoint (or disable, with "") the global cache; for tests. */
void setGlobalRunCacheDir(const std::string &dir);

/** Aggregate accounting of cached runs in this process. */
struct RunStats
{
    Counter jobs;         //!< points requested
    Counter simulated;    //!< points actually simulated
    Counter cache_hits;   //!< points served from the run cache
    Counter cache_stores; //!< fresh points written to the cache
    Average sim_seconds;  //!< wall time per simulated point
    Average load_seconds; //!< wall time per cache hit
    Average queue_seconds; //!< submit-to-start wait per parallel job
};

/** Record one parallel job's submit-to-start wait (Runner workers). */
void recordQueueWait(double seconds);

/** Snapshot of the process-wide run accounting (thread-safe). */
RunStats runStats();

/** One-line human-readable summary of runStats() for harnesses. */
std::string runSummaryLine();

/**
 * Run one already-scaled configuration through the global cache:
 * load on hit, otherwise simulate, time, and store. This is the
 * single execution path shared by runApp() and the parallel Runner,
 * which also makes it the choke point for run-level observability:
 * every run (hit or miss) is offered to the DESC_STATS_OUT sidecar
 * (sim/statdump.hh) and traced on the runner channel.
 */
AppRun runAppCached(const SystemConfig &scaled_cfg);

} // namespace desc::sim

#endif // DESC_SIM_RUNCACHE_HH
