/**
 * @file
 * Unit tests for the machine-readable stat dumps: registry
 * construction from a finished run, JSON serialization, and
 * registry equality across a run-cache store/load round-trip.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "sim/runcache.hh"
#include "sim/statdump.hh"

using namespace desc;
using namespace desc::sim;

namespace {

SystemConfig
tinyConfig(const char *app = "FFT")
{
    SystemConfig cfg = baselineConfig(workloads::findApp(app));
    cfg.cores = 2;
    cfg.threads_per_core = 2;
    cfg.insts_per_thread = 1000;
    return cfg;
}

/** A fresh private cache directory, removed on destruction. */
struct TempCacheDir
{
    std::string dir;

    TempCacheDir()
    {
        static int counter = 0;
        dir = (std::filesystem::temp_directory_path()
               / ("desc-statdump-test-" + std::to_string(getpid())
                  + "-" + std::to_string(counter++)))
                  .string();
        std::filesystem::create_directories(dir);
    }

    ~TempCacheDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }
};

std::string
registryJson(const StatRegistry &reg)
{
    std::ostringstream os;
    writeRegistryJson(os, reg);
    return os.str();
}

/** An ExitWriter render: the texts, concatenated, in brackets. */
std::string
bracketed(const std::vector<std::string> &texts)
{
    std::string out = "[";
    for (const auto &t : texts)
        out += t;
    return out + "]";
}

} // namespace

TEST(StatsSidecar, UnopenablePathsAreFatalAtStartup)
{
    // Both sidecars are opened during static initialization, so each
    // death test re-executes this binary with the variables set: the
    // child must die before main() reaches the empty statement. They
    // once warned at exit, after every run had been simulated.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    TempCacheDir tmp;
    const std::string missing = tmp.dir + "/desc-no-such-dir/s.json";
    setenv("DESC_STATS_OUT", missing.c_str(), 1);
    EXPECT_DEATH({}, "cannot open DESC_STATS_OUT=\".*desc-no-such-dir/"
                     "s.json\": No such file or directory");

    // The JSON sidecar opens; its time series lands on a directory.
    const std::string json = tmp.dir + "/s.json";
    std::filesystem::create_directories(tmp.dir + "/s.timeseries.csv");
    setenv("DESC_STATS_OUT", json.c_str(), 1);
    setenv("DESC_STATS_EVERY", "1000", 1);
    EXPECT_DEATH({}, "cannot open the DESC_STATS_EVERY time series "
                     "\".*s.timeseries.csv\": Is a directory");
    unsetenv("DESC_STATS_EVERY");
    unsetenv("DESC_STATS_OUT");
}

TEST(ExitWriter, WritesTheSortedRecordsOnceWhenDestroyed)
{
    TempCacheDir tmp;
    const std::string path = tmp.dir + "/out.txt";
    auto slurp = [&path]() {
        std::ifstream in(path);
        return std::string(std::istreambuf_iterator<char>(in), {});
    };
    {
        ExitWriter w(path, "the test file ", bracketed);
        ASSERT_TRUE(w.enabled());
        w.add("b", 1, "b1 ");
        w.add("a", 10, "a10 ");
        w.add("a", 2, "a2 ");
        EXPECT_EQ(w.contents(), "[a2 a10 b1 ]");
        EXPECT_EQ(slurp(), "") << "written before exit";
    }
    EXPECT_EQ(slurp(), "[a2 a10 b1 ]");
}

TEST(StatDump, RegistryMatchesRunFields)
{
    auto cfg = scaledConfig(tinyConfig());
    cfg.l2.collect_chunk_stats = true;
    AppRun run = runScaledApp(cfg);
    auto key = configHash(cfg);

    StatRegistry reg = buildRunRegistry(cfg, run, key);
    const auto &r = run.result;
    const auto &h = r.hierarchy;

    EXPECT_EQ(reg.text("run.app"), cfg.app.name);
    EXPECT_EQ(reg.integer("run.config_hash"), key);
    EXPECT_EQ(reg.integer("run.cores"), cfg.cores);

    EXPECT_EQ(reg.integer("perf.cycles"), r.cycles);
    EXPECT_EQ(reg.integer("perf.instructions"), r.instructions);
    EXPECT_DOUBLE_EQ(reg.scalar("perf.ipc"),
                     double(r.instructions) / double(r.cycles));

    EXPECT_EQ(reg.counterValue("l1.d.accesses"),
              h.l1d_accesses.value());
    EXPECT_EQ(reg.counterValue("l2.requests"), h.l2_requests.value());
    EXPECT_EQ(reg.counterValue("l2.hits"), h.l2_hits.value());
    EXPECT_EQ(reg.average("l2.hit_latency").count(),
              h.hit_latency.count());
    EXPECT_DOUBLE_EQ(reg.average("l2.transfer_window").mean(),
                     h.transfer_window.mean());

    EXPECT_EQ(reg.histogram("chunks.histogram").total(),
              r.chunks.histogram().total());
    EXPECT_EQ(reg.integer("dram.reads"), r.dram_reads);

    EXPECT_DOUBLE_EQ(reg.scalar("energy.l2.total"), run.l2.total());
    EXPECT_DOUBLE_EQ(reg.scalar("energy.processor.total"),
                     run.processor.total());

    // The whole tree is present, not just the spot checks above.
    EXPECT_GE(reg.size(), std::size_t{40});
}

TEST(StatDump, JsonNestsDottedPaths)
{
    StatRegistry reg;
    reg.addInt("a", 1, "test stat");
    reg.addScalar("b.c", 0.5, "test stat");
    reg.addText("b.d", "hi", "test stat");
    reg.addInt("e.f.g", 2, "test stat");

    EXPECT_EQ(registryJson(reg),
              "{\n"
              "  \"a\": 1,\n"
              "  \"b\": {\n"
              "    \"c\": 0.5,\n"
              "    \"d\": \"hi\"\n"
              "  },\n"
              "  \"e\": {\n"
              "    \"f\": {\n"
              "      \"g\": 2\n"
              "    }\n"
              "  }\n"
              "}");
}

TEST(StatDump, JsonCompositeAndSpecialValues)
{
    StatRegistry reg;
    Average a;
    a.sample(2.0);
    a.sample(4.0);
    reg.add("lat", a, "test stat");
    Histogram h(2);
    h.sample(0);
    h.sample(1);
    h.sample(5); // overflow
    reg.add("hist", h, "test stat");
    reg.addScalar("nan", std::nan(""), "test stat");
    reg.addText("quoted", "a\"b\nc", "test stat");

    std::string json = registryJson(reg);
    EXPECT_NE(json.find("\"lat\": {\"count\": 2, \"sum\": 6, "
                        "\"mean\": 3, \"min\": 2, \"max\": 4}"),
              std::string::npos);
    EXPECT_NE(json.find("\"hist\": {\"total\": 3, \"overflow\": 1, "
                        "\"mean\": 0.5, \"bins\": [1, 1]}"),
              std::string::npos);
    EXPECT_NE(json.find("\"nan\": null"), std::string::npos);
    EXPECT_NE(json.find("\"quoted\": \"a\\\"b\\nc\""),
              std::string::npos);
}

TEST(StatDump, RegistryRestoresThroughTheRunCache)
{
    // A run reloaded from the on-disk cache must dump the exact same
    // registry as the run that was simulated — bit-for-bit, since the
    // cache stores full-precision doubles.
    TempCacheDir tmp;
    RunCache cache(tmp.dir);
    ASSERT_TRUE(cache.enabled());

    auto cfg = scaledConfig(tinyConfig("LU"));
    cfg.l2.collect_chunk_stats = true;
    AppRun run = runScaledApp(cfg);
    auto key = configHash(cfg);
    cache.store(key, run);

    auto loaded = cache.load(key);
    ASSERT_TRUE(loaded.has_value());

    EXPECT_EQ(registryJson(buildRunRegistry(cfg, *loaded, key)),
              registryJson(buildRunRegistry(cfg, run, key)));
}
