/**
 * @file
 * Tests for the periodic stat time-series: strict DESC_STATS_EVERY
 * parsing, bit-identical simulation results with snapshots on, the
 * floor((cycles-1)/every) row-count contract, and byte-identical CSV
 * output under the parallel runner.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/runcache.hh"
#include "sim/runner.hh"
#include "sim/system.hh"
#include "sim/timeseries.hh"

using namespace desc;
using namespace desc::sim;

namespace {

/** Restores the snapshot override and the CSV redirect, and drops
 *  buffered rows, so tests cannot leak time-series state. */
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
        // rest of the process regardless of the environment. The CSV
        // stays redirected into the temp dir so a later flushForTest()
        // cannot drop a stray file into the test working directory.
        timeseries::setEveryForTest(0);
        timeseries::setPathForTest(
            (std::filesystem::temp_directory_path()
             / "desc-ts-atexit.csv").string());
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

std::string
tempCsvPath(const char *tag)
{
    return (std::filesystem::temp_directory_path()
            / (std::string("desc-ts-") + tag + "-"
               + std::to_string(::getpid()) + ".csv"))
        .string();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::size_t
dataRows(const std::string &csv)
{
    std::size_t rows = 0;
    bool header = true;
    std::stringstream ss(csv);
    std::string line;
    while (std::getline(ss, line)) {
        if (header) {
            header = false;
            continue;
        }
        if (!line.empty())
            rows++;
    }
    return rows;
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

    timeseries::setEveryForTest(0);
    auto plain = runSystem(cfg);

    timeseries::resetForTest();
    timeseries::setEveryForTest(500);
    auto segmented = runSystem(cfg);

    EXPECT_EQ(plain.cycles, segmented.cycles);
    EXPECT_EQ(plain.instructions, segmented.instructions);
    EXPECT_EQ(plain.hierarchy.l2_hits.value(),
              segmented.hierarchy.l2_hits.value());
    EXPECT_EQ(plain.hierarchy.l2_misses.value(),
              segmented.hierarchy.l2_misses.value());
    EXPECT_EQ(plain.hierarchy.data_flips, segmented.hierarchy.data_flips);
    EXPECT_EQ(plain.hierarchy.ctrl_flips, segmented.hierarchy.ctrl_flips);
    EXPECT_EQ(plain.dram_reads, segmented.dram_reads);
    EXPECT_EQ(plain.dram_writes, segmented.dram_writes);
}

TEST(Timeseries, RowCountMatchesTheCadence)
{
    TimeseriesGuard guard;
    auto cfg = smallConfig();
    const std::uint64_t every = 700;

    timeseries::setEveryForTest(every);
    timeseries::resetForTest();
    auto r = runSystem(cfg);

    std::string path = tempCsvPath("rowcount");
    timeseries::setPathForTest(path);
    timeseries::flushForTest();
    std::string csv = readFile(path);
    std::remove(path.c_str());

    // Snapshots land at every multiple of `every` strictly below the
    // final cycle count (the run's own end is the report, not a row).
    EXPECT_EQ(dataRows(csv), (r.cycles - 1) / every);

    // Rows are cumulative: the last row's counters are bounded by the
    // run totals.
    std::stringstream ss(csv);
    std::string line, last;
    std::getline(ss, line); // header
    while (std::getline(ss, line))
        if (!line.empty())
            last = line;
    ASSERT_FALSE(last.empty());
    std::uint64_t cycle = 0, instructions = 0;
    char label[128];
    ASSERT_EQ(std::sscanf(last.c_str(), "%127[^,],%llu,%llu", label,
                          (unsigned long long *)&cycle,
                          (unsigned long long *)&instructions),
              3);
    EXPECT_LT(cycle, r.cycles);
    EXPECT_LE(instructions, r.instructions);
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

    timeseries::setEveryForTest(1000);

    auto batch = [&](const char *tag) {
        timeseries::resetForTest();
        Runner runner(4);
        runner.run(cfgs);
        std::string path = tempCsvPath(tag);
        timeseries::setPathForTest(path);
        timeseries::flushForTest();
        std::string csv = readFile(path);
        std::remove(path.c_str());
        return csv;
    };

    std::string a = batch("batch-a");
    std::string b = batch("batch-b");
    EXPECT_FALSE(a.empty());
    EXPECT_GT(dataRows(a), 0u);
    EXPECT_EQ(a, b) << "time-series CSV not deterministic under the "
                       "parallel runner";
}
