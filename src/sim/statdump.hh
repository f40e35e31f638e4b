/**
 * @file
 * Machine-readable statistic dumps.
 *
 * buildRunRegistry() lays every number a finished run produced — raw
 * activity counters, derived rates, and the energy breakdowns — into
 * one StatRegistry tree; printRunReport() renders its table from that
 * registry, and the JSON writer here serializes the same tree, so the
 * human-readable and machine-readable views can never disagree.
 *
 * Set DESC_STATS_OUT=<path> to make every harness write a JSON
 * sidecar of all runs it executed (including run-cache hits). The
 * file is opened at startup (a path that cannot be opened is fatal
 * before any run) and written at process exit by an ExitWriter, as
 * is the DESC_STATS_EVERY time series (sim/timeseries.hh).
 */

#ifndef DESC_SIM_STATDUMP_HH
#define DESC_SIM_STATDUMP_HH

#include <cstdint>
#include <cstdio>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

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
 * Record one executed run for the DESC_STATS_OUT sidecar (no-op
 * unless it is set). Thread-safe; runs are written at exit ordered
 * by (app, config hash), so parallel sweeps produce deterministic
 * sidecars.
 */
void recordRunStats(const SystemConfig &cfg, const AppRun &run,
                    std::uint64_t config_hash);

/**
 * A file written once, at process exit: it is opened when the writer
 * is built at startup (so a path that cannot be opened fails before
 * any run), add() buffers one record's text under a sort key from any
 * thread, and the destructor sorts the records and writes what the
 * render function makes of their texts. Records with equal keys come from
 * the same configuration, so the file's bytes do not depend on
 * worker scheduling.
 */
class ExitWriter
{
  public:
    /** The file's bytes from the records' texts, in sorted order. */
    using Render = std::string (*)(const std::vector<std::string> &);

    /**
     * Opens @p path for writing; an empty path buffers but writes
     * nothing. A path that cannot be opened is fatal: "cannot open
     * <what>"<path>": <reason>".
     */
    ExitWriter(std::string path, const std::string &what, Render render);

    ~ExitWriter();

    ExitWriter(const ExitWriter &) = delete;
    ExitWriter &operator=(const ExitWriter &) = delete;

    bool enabled() const { return _file != nullptr; }

    /** Buffer @p text, sorted by (@p key, @p subkey, @p text):
     *  (app, config hash) in the sidecar, (run label, cycle) in the
     *  time series. Thread-safe. */
    void add(std::string key, std::uint64_t subkey, std::string text);

    /** What the file would hold if the process exited now. */
    std::string contents();

    /** Drop every buffered record (tests). */
    void clear();

  private:
    struct Record
    {
        std::string key;
        std::uint64_t subkey;
        std::string text;

        auto operator<=>(const Record &) const = default;
    };

    const std::string _path;
    std::FILE *const _file;
    const Render _render;
    std::mutex _mutex;
    std::vector<Record> _records;
};

} // namespace desc::sim

#endif // DESC_SIM_STATDUMP_HH
