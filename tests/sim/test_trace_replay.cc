/**
 * @file
 * Whole-run checks of the process-wide op traces: a run that replays
 * its threads' traces gives the same result, byte for byte in the
 * run-cache serialization, as the run that recorded them — also when
 * the trace is shorter than the run, when the byte cap stops the
 * recording, and when parallel workers record and replay the same
 * (app, seed) at once.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <unistd.h>

#include "sim/runcache.hh"
#include "sim/runner.hh"
#include "workloads/stream.hh"

using namespace desc;
using namespace desc::sim;

namespace {

/** Drops the published traces on entry and exit, at the default cap. */
struct FreshTraces
{
    explicit FreshTraces(std::size_t cap = workloads::kTraceCacheCap)
    {
        workloads::resetTraceCache(cap);
    }
    ~FreshTraces() { workloads::resetTraceCache(); }
};

/** The run's run-cache entry: every result field the cache keeps. */
std::string
serialized(const AppRun &run)
{
    static int counter = 0;
    const auto dir = std::filesystem::temp_directory_path()
        / ("desc-trace-test-" + std::to_string(getpid()) + "-"
           + std::to_string(counter++));
    std::filesystem::create_directories(dir);
    RunCache(dir.string()).store(1, run);
    std::ifstream in(dir / "0000000000000001.run", std::ios::binary);
    std::string bytes{std::istreambuf_iterator<char>(in), {}};
    std::filesystem::remove_all(dir);
    return bytes;
}

SystemConfig
smtConfig()
{
    SystemConfig cfg = baselineConfig(workloads::findApp("Ocean"));
    cfg.cores = 2;
    cfg.threads_per_core = 2;
    cfg.insts_per_thread = 4000;
    cfg.seed = 0x7e57;
    applyScheme(cfg, encoding::SchemeKind::DescZeroSkip);
    return cfg;
}

SystemConfig
oooConfig()
{
    SystemConfig cfg = baselineConfig(workloads::findApp("mcf"));
    cfg.cpu = CpuKind::OutOfOrder;
    cfg.threads_per_core = 1;
    cfg.insts_per_thread = 12000;
    cfg.seed = 0x7e58;
    applyScheme(cfg, encoding::SchemeKind::DescLastValueSkip);
    cfg.l2.ecc = true;
    cfg.l2.ecc_segment_bits = 64;
    return cfg;
}

void
checkReplayMatchesRecording(const SystemConfig &cfg)
{
    std::string cold;
    {
        FreshTraces fresh;
        cold = serialized(runScaledApp(cfg));
        EXPECT_GT(workloads::traceCacheBytes(), 0u);
        // Every thread replays its whole trace.
        EXPECT_EQ(serialized(runScaledApp(cfg)), cold);
    }
    {
        // The cached prefix is shorter than the run: each thread
        // replays it, resumes the generator and publishes the rest.
        FreshTraces fresh;
        SystemConfig half = cfg;
        half.insts_per_thread /= 2;
        runScaledApp(half);
        const std::size_t prefix = workloads::traceCacheBytes();
        EXPECT_GT(prefix, 0u);
        EXPECT_EQ(serialized(runScaledApp(cfg)), cold);
        EXPECT_GT(workloads::traceCacheBytes(), prefix);
        EXPECT_EQ(serialized(runScaledApp(cfg)), cold);
    }
    for (std::size_t cap : {std::size_t{0}, std::size_t{64} << 10}) {
        // Past the cap: threads that do not fit stop recording and
        // generate live on every run; at 64 KiB some of the in-order
        // threads fit and replay, the OoO thread does not.
        FreshTraces fresh(cap);
        EXPECT_EQ(serialized(runScaledApp(cfg)), cold) << cap;
        EXPECT_LE(workloads::traceCacheBytes(), cap);
        EXPECT_EQ(serialized(runScaledApp(cfg)), cold) << cap;
    }
}

} // namespace

TEST(TraceReplay, InOrderReplayMatchesRecording)
{
    checkReplayMatchesRecording(smtConfig());
}

TEST(TraceReplay, OutOfOrderReplayMatchesRecording)
{
    checkReplayMatchesRecording(oooConfig());
}

TEST(TraceReplay, ParallelWorkersSharingAppAndSeedMatchSerial)
{
    // Points that differ only in the transfer scheme share every
    // thread's trace key, so two workers record, publish and replay
    // the same traces concurrently.
    setGlobalRunCacheDir("");
    std::vector<SystemConfig> cfgs;
    for (auto kind : {encoding::SchemeKind::Binary,
                      encoding::SchemeKind::DescZeroSkip,
                      encoding::SchemeKind::BusInvert,
                      encoding::SchemeKind::DescLastValueSkip}) {
        SystemConfig smt = smtConfig();
        applyScheme(smt, kind);
        cfgs.push_back(smt);
        SystemConfig ooo = oooConfig();
        applyScheme(ooo, kind);
        ooo.l2.ecc = false;
        cfgs.push_back(ooo);
    }

    std::vector<AppRun> serial;
    {
        FreshTraces fresh;
        serial = Runner(1).run(cfgs);
    }
    std::vector<AppRun> parallel;
    {
        FreshTraces fresh;
        parallel = Runner(2).run(cfgs);
    }
    ASSERT_EQ(serial.size(), cfgs.size());
    ASSERT_EQ(parallel.size(), cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); i++)
        EXPECT_EQ(serialized(parallel[i]), serialized(serial[i])) << i;
}
