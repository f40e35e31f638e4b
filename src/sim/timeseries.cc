#include "sim/timeseries.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <sstream>
#include <vector>

#include "common/env.hh"
#include "common/log.hh"

namespace desc::sim::timeseries {

namespace {

constexpr std::uint64_t kNoOverride = ~std::uint64_t{0};

std::atomic<std::uint64_t> g_every_override{kNoOverride};

struct BufferedRow
{
    std::string label;
    std::uint64_t seq;
    Row row;
};

struct Buffer
{
    std::mutex mutex;
    std::vector<BufferedRow> rows;
    std::uint64_t next_seq = 0;
    std::string path_override;
    bool atexit_registered = false;
};

/** Leaked so the atexit flush never races static destruction. */
Buffer &
buffer()
{
    static Buffer *b = new Buffer;
    return *b;
}

void
writeCsv(Buffer &b, std::FILE *file)
{
    // Deterministic order regardless of worker scheduling: identical
    // configs produce identical rows, so (label, cycle, seq) yields a
    // byte-stable file even under DESC_SIM_JOBS > 1.
    std::sort(b.rows.begin(), b.rows.end(),
              [](const BufferedRow &a, const BufferedRow &c) {
                  if (a.label != c.label)
                      return a.label < c.label;
                  if (a.row.cycle != c.row.cycle)
                      return a.row.cycle < c.row.cycle;
                  return a.seq < c.seq;
              });

    std::ostringstream out;
    out << "run,cycle,instructions,l2_hits,l2_misses,read_transfers,"
           "write_transfers,data_flips,ctrl_flips,dram_reads,"
           "dram_writes\n";
    for (const auto &r : b.rows) {
        char flips[64];
        std::snprintf(flips, sizeof(flips), "%.17g,%.17g",
                      r.row.data_flips, r.row.ctrl_flips);
        out << r.label << ',' << r.row.cycle << ','
            << r.row.instructions << ',' << r.row.l2_hits << ','
            << r.row.l2_misses << ',' << r.row.read_transfers << ','
            << r.row.write_transfers << ',' << flips << ','
            << r.row.dram_reads << ',' << r.row.dram_writes << '\n';
    }
    const std::string bytes = out.str();
    std::fwrite(bytes.data(), 1, bytes.size(), file);
    std::fflush(file);
}

std::FILE *
openCsv(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        const int err = errno;
        DESC_FATAL("cannot open the ", env::name(env::Var::StatsEvery),
                   " time series \"", path, "\": ", std::strerror(err));
    }
    return f;
}

} // namespace

std::uint64_t
parseEverySpec(const char *spec)
{
    if (!spec || !*spec)
        return 0;
    return env::parseUint(env::Var::StatsEvery, spec, 0, 1, kMaxEvery);
}

// Parsed once, at startup: runSystem asks at every run start, the
// bench holds the steady state to zero environment reads (tests pin
// the cadence through setEveryForTest, not setenv), and a malformed
// value must fail before a pool worker starts a run.
static const std::uint64_t g_every =
    parseEverySpec(env::raw(env::Var::StatsEvery));

// Opened at startup for the same reason: a path that cannot be
// written must fail before the first run, not at exit after the
// last. The file stays empty until the exit-time flush.
static std::FILE *const g_csv = g_every ? openCsv(csvPath()) : nullptr;

namespace {

void
flushAtExit()
{
    Buffer &b = buffer();
    std::lock_guard<std::mutex> lock(b.mutex);
    if (g_csv)
        writeCsv(b, g_csv);
}

} // namespace

std::uint64_t
everyCycles()
{
    std::uint64_t o = g_every_override.load(std::memory_order_relaxed);
    return o != kNoOverride ? o : g_every;
}

void
record(const std::string &run_label, const Row &row)
{
    Buffer &b = buffer();
    std::lock_guard<std::mutex> lock(b.mutex);
    if (!b.atexit_registered) {
        b.atexit_registered = true;
        std::atexit(flushAtExit);
    }
    b.rows.push_back(BufferedRow{run_label, b.next_seq++, row});
}

std::string
csvPath()
{
    Buffer &b = buffer();
    if (!b.path_override.empty())
        return b.path_override;
    std::string base =
        env::stringOr(env::Var::StatsOut, "");
    if (base.empty())
        return "desc-timeseries.csv";
    std::size_t slash = base.find_last_of('/');
    std::size_t dot = base.find_last_of('.');
    if (dot != std::string::npos
        && (slash == std::string::npos || dot > slash))
        base.resize(dot);
    return base + ".timeseries.csv";
}

void
setEveryForTest(std::uint64_t every)
{
    g_every_override.store(every, std::memory_order_relaxed);
}

void
setPathForTest(const std::string &path)
{
    Buffer &b = buffer();
    std::lock_guard<std::mutex> lock(b.mutex);
    b.path_override = path;
}

void
flushForTest()
{
    Buffer &b = buffer();
    std::lock_guard<std::mutex> lock(b.mutex);
    std::FILE *f = openCsv(csvPath());
    writeCsv(b, f);
    std::fclose(f);
}

void
resetForTest()
{
    Buffer &b = buffer();
    std::lock_guard<std::mutex> lock(b.mutex);
    b.rows.clear();
    b.next_seq = 0;
}

} // namespace desc::sim::timeseries
