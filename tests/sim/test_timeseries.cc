/**
 * @file
 * Tests for the periodic stat time-series: strict DESC_STATS_EVERY
 * parsing, bit-identical simulation results with snapshots on, the
 * header drawn from the AppRun field list, cumulative rows bounded by
 * the finished run, the floor((cycles-1)/every) row-count contract,
 * and byte-identical CSV output under the parallel runner.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/experiment.hh"
#include "sim/runcache.hh"
#include "sim/runner.hh"
#include "sim/statdump.hh"
#include "sim/system.hh"
#include "sim/timeseries.hh"

using namespace desc;
using namespace desc::sim;

namespace {

/** Restores the snapshot override and drops buffered rows, so tests
 *  cannot leak time-series state. */
struct TimeseriesGuard
{
    TimeseriesGuard()
    {
        timeseries::setEveryForTest(0);
        timeseries::resetForTest();
    }

    ~TimeseriesGuard()
    {
        // ~0 would mean "no override"; 0 keeps snapshots off for the
        // rest of the process regardless of the environment.
        timeseries::setEveryForTest(0);
        timeseries::resetForTest();
    }
};

SystemConfig
smallConfig(const char *app = "FFT")
{
    SystemConfig cfg = baselineConfig(workloads::findApp(app));
    cfg.insts_per_thread = 3000;
    return cfg;
}

/** The time-series CSV split into its header and rows of cells. */
struct Csv
{
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;

    /** Index of the column named @p name (fails the test if none). */
    std::size_t
    column(const std::string &name) const
    {
        for (std::size_t i = 0; i < header.size(); i++)
            if (header[i] == name)
                return i;
        ADD_FAILURE() << "no column " << name;
        return 0;
    }
};

std::vector<std::string>
splitCells(const std::string &line)
{
    std::vector<std::string> cells;
    std::stringstream ss(line);
    for (std::string cell; std::getline(ss, cell, ',');)
        cells.push_back(cell);
    return cells;
}

Csv
parseCsv(const std::string &text)
{
    Csv csv;
    std::stringstream ss(text);
    std::string line;
    if (std::getline(ss, line))
        csv.header = splitCells(line);
    while (std::getline(ss, line)) {
        csv.rows.push_back(splitCells(line));
        EXPECT_EQ(csv.rows.back().size(), csv.header.size()) << line;
    }
    return csv;
}

/** Every AppRun field of @p run as (path, exact text). */
std::vector<std::pair<std::string, std::string>>
fieldTexts(const AppRun &run)
{
    std::vector<std::pair<std::string, std::string>> out;
    forEachField(run, [&out](const char *path, const char *,
                             const auto &v) {
        using T = std::decay_t<decltype(v)>;
        std::ostringstream os;
        os << std::hexfloat;
        if constexpr (std::is_same_v<T, Counter>) {
            os << v.value();
        } else if constexpr (std::is_same_v<T, Average>) {
            os << v.sum() << ' ' << v.min() << ' ' << v.max() << ' '
               << v.count();
        } else if constexpr (std::is_same_v<T, core::ChunkStats>) {
            const Histogram &h = v.histogram();
            for (unsigned b = 0; b < h.numBins(); b++)
                os << h.bin(b) << ' ';
            os << h.total() << ' ' << h.overflow() << ' ' << v.matches()
               << ' ' << v.matchCandidates();
        } else {
            os << v;
        }
        out.emplace_back(path, os.str());
    });
    return out;
}

/** The sidecar value of every single-number entry of @p run. */
std::map<std::string, double>
sidecarNumbers(const SystemConfig &cfg, const AppRun &run)
{
    using Kind = StatRegistry::Kind;
    std::map<std::string, double> out;
    StatRegistry reg = buildRunRegistry(cfg, run, configHash(cfg));
    for (const auto &[path, e] : reg.entries()) {
        if (e.kind == Kind::Counter)
            out[path] = double(e.counter->value());
        else if (e.kind == Kind::Int)
            out[path] = double(e.integer);
        else if (e.kind == Kind::Scalar)
            out[path] = e.scalar;
    }
    return out;
}

} // namespace

TEST(TimeseriesSpec, StrictParsingRejectsGarbage)
{
    using timeseries::parseEverySpec;
    // Other tests of this binary may have left pool threads running.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EQ(parseEverySpec(nullptr), 0u);
    EXPECT_EQ(parseEverySpec(""), 0u);
    EXPECT_EQ(parseEverySpec("1"), 1u);
    EXPECT_EQ(parseEverySpec("10000"), 10000u);
    // Boundary: kMaxEvery is accepted, one past it is not, and a
    // value beyond 64 bits overflows to rejection. Rejection is fatal.
    EXPECT_EQ(parseEverySpec("1000000000000000"), timeseries::kMaxEvery);
    for (const char *bad : {"0", "-5", "-0", "10k", "cycles", "1.5",
                            "1000000000000001", "18446744073709551616"})
        EXPECT_DEATH(parseEverySpec(bad), "invalid DESC_STATS_EVERY=")
            << "value \"" << bad << '"';
}

TEST(Timeseries, SnapshotsDoNotPerturbTheSimulation)
{
    TimeseriesGuard guard;
    auto cfg = smallConfig();
    cfg.l2.collect_chunk_stats = true;

    timeseries::setEveryForTest(0);
    const AppRun plain = runScaledApp(cfg);

    timeseries::setEveryForTest(500);
    const AppRun segmented = runScaledApp(cfg);
    EXPECT_FALSE(parseCsv(timeseries::csvForTest()).rows.empty());

    const auto want = fieldTexts(plain);
    const auto got = fieldTexts(segmented);
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); i++)
        EXPECT_EQ(want[i], got[i]);
}

TEST(Timeseries, HeaderIsRunThenTheScalarSidecarPaths)
{
    TimeseriesGuard guard;
    // The columns are the AppRun fields, in list order, whose sidecar
    // entry is a single number: no averages, histograms, or derived
    // stats.
    const SystemConfig cfg = smallConfig();
    const AppRun run;
    const auto numbers = sidecarNumbers(cfg, run);
    std::vector<std::string> want = {"run"};
    forEachField(run, [&](const char *path, const char *, const auto &) {
        if (numbers.count(path))
            want.push_back(path);
    });
    EXPECT_EQ(parseCsv(timeseries::csvForTest()).header, want);
    EXPECT_EQ(want[1], "perf.cycles");
}

TEST(Timeseries, RowsAreCumulativeAndBoundedByTheFinishedRun)
{
    TimeseriesGuard guard;
    timeseries::setEveryForTest(400);
    std::map<std::string, std::map<std::string, double>> finals;
    for (auto kind : {encoding::SchemeKind::Binary,
                      encoding::SchemeKind::DescZeroSkip}) {
        auto cfg = smallConfig("Radix");
        applyScheme(cfg, kind);
        finals[runLabel(cfg, configHash(cfg))] =
            sidecarNumbers(cfg, runScaledApp(cfg));
    }

    const Csv csv = parseCsv(timeseries::csvForTest());
    ASSERT_GT(csv.rows.size(), 2u);
    std::map<std::string, std::vector<double>> last;
    for (const auto &row : csv.rows) {
        ASSERT_TRUE(finals.count(row[0])) << row[0];
        const auto &final_values = finals[row[0]];
        auto &prev = last[row[0]];
        prev.resize(row.size(), 0.0);
        for (std::size_t c = 1; c < row.size(); c++) {
            const std::string &path = csv.header[c];
            const double v = std::strtod(row[c].c_str(), nullptr);
            EXPECT_GE(v, prev[c]) << row[0] << ' ' << path;
            EXPECT_LE(v, final_values.at(path)) << row[0] << ' ' << path;
            prev[c] = v;
        }
    }
    EXPECT_EQ(last.size(), finals.size());
}

TEST(Timeseries, RowCountMatchesTheCadence)
{
    TimeseriesGuard guard;
    auto cfg = smallConfig();
    const std::uint64_t every = 700;

    timeseries::setEveryForTest(every);
    auto r = runSystem(cfg);
    const Csv csv = parseCsv(timeseries::csvForTest());

    // Snapshots land at every multiple of `every` strictly below the
    // final cycle count (the run's own end is the report, not a row).
    ASSERT_EQ(csv.rows.size(), (r.cycles - 1) / every);

    // Rows are cumulative: the last row's counters are bounded by the
    // run totals.
    const auto &last = csv.rows.back();
    EXPECT_EQ(std::stoull(last[csv.column("perf.cycles")]),
              csv.rows.size() * every);
    EXPECT_LT(std::stoull(last[csv.column("perf.cycles")]), r.cycles);
    EXPECT_LE(std::stoull(last[csv.column("perf.instructions")]),
              r.instructions);
}

TEST(Timeseries, ParallelRunnerProducesByteIdenticalCsv)
{
    TimeseriesGuard guard;
    // Fresh results every time: a cache hit would skip the simulation
    // and record no time-series rows.
    setGlobalRunCacheDir("");

    std::vector<SystemConfig> cfgs;
    for (const char *app : {"FFT", "Radix"}) {
        for (auto kind : {encoding::SchemeKind::Binary,
                          encoding::SchemeKind::DescZeroSkip}) {
            auto cfg = smallConfig(app);
            applyScheme(cfg, kind);
            cfgs.push_back(cfg);
        }
    }

    const std::uint64_t every = 1000;
    timeseries::setEveryForTest(every);

    auto batch = [&]() {
        timeseries::resetForTest();
        Runner runner(4);
        runner.run(cfgs);
        return timeseries::csvForTest();
    };

    std::string a = batch();
    std::string b = batch();
    EXPECT_EQ(a, b) << "time-series CSV not deterministic under the "
                       "parallel runner";

    // Every run contributes rows, each on the cadence.
    const Csv csv = parseCsv(a);
    std::map<std::string, std::size_t> rows_per_run;
    for (const auto &row : csv.rows) {
        rows_per_run[row[csv.column("run")]]++;
        EXPECT_EQ(std::stoull(row[csv.column("perf.cycles")]) % every, 0u);
    }
    EXPECT_EQ(rows_per_run.size(), cfgs.size());
}
