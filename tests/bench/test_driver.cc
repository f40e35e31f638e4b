/**
 * @file
 * Tests for the figure driver (bench/benchutil.hh): two tiny figures
 * whose point lists overlap, one of them repeating a point, must
 * simulate each distinct configuration once, hand every figure the
 * same runs a per-point sim::runApp loop would, write each run-cache
 * entry once, and keep one sidecar record per declared point.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "benchutil.hh"
#include "sim/runcache.hh"
#include "sim/statdump.hh"

using namespace desc;
using namespace desc::bench;

namespace {

sim::SystemConfig
tinyConfig(const char *app,
           encoding::SchemeKind kind = encoding::SchemeKind::Binary)
{
    auto cfg = sim::baselineConfig(workloads::findApp(app));
    cfg.cores = 2;
    cfg.threads_per_core = 2;
    cfg.insts_per_thread = 1000;
    sim::applyScheme(cfg, kind);
    return cfg;
}

Points
pointsA()
{
    return {tinyConfig("FFT"),
            tinyConfig("LU", encoding::SchemeKind::DescZeroSkip),
            tinyConfig("FFT")};
}

Points
pointsB()
{
    return {tinyConfig("LU", encoding::SchemeKind::DescZeroSkip),
            tinyConfig("Barnes")};
}

constexpr std::uint64_t kDistinct = 3;
constexpr std::uint64_t kDeclared = 5;

Runs rendered_a, rendered_b;

const Figure kFigA{"a", pointsA, [](const Runs &r) { rendered_a = r; }};
const Figure kFigB{"b", pointsB, [](const Runs &r) { rendered_b = r; }};

/** Every statistic of @p run, as its sidecar JSON. */
std::string
statsJson(const sim::SystemConfig &cfg, const sim::AppRun &run)
{
    auto scaled = sim::scaledConfig(cfg);
    std::ostringstream os;
    sim::writeRegistryJson(
        os, sim::buildRunRegistry(scaled, run, sim::configHash(scaled)));
    return os.str();
}

void
expectRunsOf(const Points &pts, const Runs &runs)
{
    ASSERT_EQ(runs.size(), pts.size());
    for (std::size_t i = 0; i < pts.size(); i++)
        EXPECT_EQ(statsJson(pts[i], runs[i]),
                  statsJson(pts[i], sim::runApp(pts[i])))
            << "point " << i;
}

/** A scratch path under the working directory, which the children
 *  of a threadsafe death test share with their parent (their pids
 *  differ). */
std::string
scratchPath(const std::string &leaf)
{
    return (std::filesystem::current_path() / ("driver-test-" + leaf))
        .string();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

} // namespace

TEST(FigureDriver, SimulatesEachDistinctPointOnce)
{
    sim::setGlobalRunCacheDir("");
    auto before = sim::runStats();
    runFigures({&kFigA, &kFigB});
    auto after = sim::runStats();
    EXPECT_EQ(after.simulated.value() - before.simulated.value(),
              kDistinct);
    EXPECT_EQ(after.jobs.value() - before.jobs.value(), kDistinct);

    expectRunsOf(pointsA(), rendered_a);
    expectRunsOf(pointsB(), rendered_b);
}

TEST(FigureDriver, WritesEachCacheEntryOnce)
{
    std::string dir = scratchPath("cache");
    std::filesystem::create_directories(dir);
    sim::setGlobalRunCacheDir(dir);

    auto before = sim::runStats();
    runFigures({&kFigA, &kFigB});
    auto mid = sim::runStats();
    EXPECT_EQ(mid.cache_stores.value() - before.cache_stores.value(),
              kDistinct);
    auto entries = std::distance(std::filesystem::directory_iterator(dir),
                                 std::filesystem::directory_iterator());
    EXPECT_EQ(std::uint64_t(entries), kDistinct);

    // A second pass is served from the cache.
    runFigures({&kFigA, &kFigB});
    EXPECT_EQ(sim::runStats().simulated.value(), mid.simulated.value());

    sim::setGlobalRunCacheDir("");
    std::filesystem::remove_all(dir);
}

TEST(FigureDriver, SidecarHoldsOneRecordPerDeclaredPoint)
{
    // The sidecar is opened at startup and written at exit, so each
    // side runs in a fresh child: the threadsafe style re-executes
    // this binary, which inherits the DESC_STATS_OUT set here.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    std::string driven = scratchPath("driven.json");
    std::string looped = scratchPath("looped.json");
    setenv("DESC_STATS_OUT", driven.c_str(), 1);
    EXPECT_EXIT(
        {
            sim::setGlobalRunCacheDir("");
            runFigures({&kFigA, &kFigB});
            std::exit(0);
        },
        ::testing::ExitedWithCode(0), "");
    setenv("DESC_STATS_OUT", looped.c_str(), 1);
    EXPECT_EXIT(
        {
            sim::setGlobalRunCacheDir("");
            for (const auto &pts : {pointsA(), pointsB()})
                for (const auto &cfg : pts)
                    sim::runApp(cfg);
            std::exit(0);
        },
        ::testing::ExitedWithCode(0), "");
    unsetenv("DESC_STATS_OUT");

    std::string got = slurp(driven);
    EXPECT_EQ(got, slurp(looped));
    std::size_t records = 0;
    for (auto at = got.find("\"config_hash\""); at != std::string::npos;
         at = got.find("\"config_hash\"", at + 1))
        records++;
    EXPECT_EQ(records, kDeclared);
    std::filesystem::remove(driven);
    std::filesystem::remove(looped);
}
