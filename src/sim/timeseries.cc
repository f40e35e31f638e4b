#include "sim/timeseries.hh"

#include <atomic>
#include <cstdio>
#include <type_traits>
#include <vector>

#include "common/env.hh"
#include "common/log.hh"
#include "sim/statdump.hh"

namespace desc::sim::timeseries {

namespace {

constexpr std::uint64_t kNoOverride = ~std::uint64_t{0};

std::atomic<std::uint64_t> g_every_override{kNoOverride};

/** Calls f(path, value) for each column of a row: every Counter,
 *  integer and double field of @p run, in list order. */
template <typename F>
void
forEachColumn(const AppRun &run, F &&f)
{
    forEachField(run, [&f](const char *path, const char *,
                           const auto &v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, Counter>)
            f(path, v.value());
        else if constexpr (std::is_same_v<T, std::uint64_t>
                           || std::is_same_v<T, double>)
            f(path, v);
    });
}

std::string
renderCsv(const std::vector<std::string> &rows)
{
    std::string out = "run";
    forEachColumn(AppRun{}, [&out](const char *path, auto) {
        out += ',';
        out += path;
    });
    out += '\n';
    for (const std::string &row : rows)
        out += row;
    return out;
}

/** Next to the DESC_STATS_OUT sidecar, else in the working dir. */
std::string
csvPath()
{
    std::string base = env::stringOr(env::Var::StatsOut, "");
    if (base.empty())
        return "desc-timeseries.csv";
    std::size_t slash = base.find_last_of('/');
    std::size_t dot = base.find_last_of('.');
    if (dot != std::string::npos
        && (slash == std::string::npos || dot > slash))
        base.resize(dot);
    return base + ".timeseries.csv";
}

} // namespace

std::uint64_t
parseEverySpec(const char *spec)
{
    if (!spec || !*spec)
        return 0;
    return env::parseUint(env::Var::StatsEvery, spec, 0, 1, kMaxEvery);
}

namespace {

// Parsed once, at startup: runSystem asks at every run start, the
// bench holds the steady state to zero environment reads (tests pin
// the cadence through setEveryForTest, not setenv), and a malformed
// value must fail before a pool worker starts a run.
const std::uint64_t g_every =
    parseEverySpec(env::raw(env::Var::StatsEvery));

// Opened at startup for the same reason: a path that cannot be
// written must fail before the first run, not at exit after the
// last. The file stays empty until the exit-time write.
ExitWriter g_rows(g_every ? csvPath() : "",
                  detail::concat("the ", env::name(env::Var::StatsEvery),
                                 " time series "),
                  renderCsv);

} // namespace

std::uint64_t
everyCycles()
{
    std::uint64_t o = g_every_override.load(std::memory_order_relaxed);
    return o != kNoOverride ? o : g_every;
}

void
record(const std::string &run_label, const AppRun &snapshot)
{
    std::string row = run_label;
    forEachColumn(snapshot, [&row](const char *, auto v) {
        if constexpr (std::is_same_v<decltype(v), double>) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), ",%.17g", v);
            row += buf;
        } else {
            row += ',' + std::to_string(v);
        }
    });
    row += '\n';
    g_rows.add(run_label, snapshot.result.cycles, std::move(row));
}

void
setEveryForTest(std::uint64_t every)
{
    g_every_override.store(every, std::memory_order_relaxed);
}

std::string
csvForTest()
{
    return g_rows.contents();
}

void
resetForTest()
{
    g_rows.clear();
}

} // namespace desc::sim::timeseries
