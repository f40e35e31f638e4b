/**
 * @file
 * Full-system differential sweep of the transfer kernels against
 * their scalar oracles.
 *
 * The word-parallel kernels claim bit-identical results to the scalar
 * walks of oracle/oracle.hh. This suite pins that claim end to end:
 * randomized system configurations run on the production schemes
 * must produce identical SimResults, byte-identical stats sidecars,
 * and byte-identical run-cache entries to the same configurations run
 * with every L2 bank scheme built by oracle::makeScheme. A link-level
 * case additionally
 * streams enough blocks through an adaptive-skip DescScheme and the
 * ticked DescLink to expose any tracker drift between the fast model
 * and the reference engine.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>
#include <vector>

#include "common/rng.hh"
#include "core/descscheme.hh"
#include "core/link.hh"
#include "oracle/oracle.hh"
#include "sim/energy_account.hh"
#include "sim/runcache.hh"
#include "sim/statdump.hh"
#include "sim/system.hh"

using namespace desc;
using namespace desc::sim;

namespace {

/** runScaledApp with the L2 bank schemes built by @p make_scheme. */
AppRun
runWith(const SystemConfig &cfg, core::SchemeFactory make_scheme)
{
    AppRun run;
    run.result = runSystem(cfg, make_scheme);
    run.l2 = computeL2Energy(cfg, run.result);
    run.processor = computeProcessorEnergy(cfg, run.result, run.l2);
    return run;
}

/** A fresh private cache directory, removed on destruction. */
struct TempCacheDir
{
    std::string dir;

    TempCacheDir()
    {
        static int counter = 0;
        dir = (std::filesystem::temp_directory_path()
               / ("desc-modesweep-test-" + std::to_string(getpid())
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

/**
 * Randomized configurations: every scheme with an oracle, each on an
 * (app, seed, budget) draw from a fixed-seed generator, so the sweep
 * walks a different-but-reproducible slice of the space than the
 * hand-written system tests.
 */
std::vector<SystemConfig>
sweepConfigs()
{
    Rng rng(0x5eed5eedULL);
    const auto &apps = workloads::parallelApps();
    const encoding::SchemeKind schemes[] = {
        encoding::SchemeKind::DescZeroSkip,
        encoding::SchemeKind::DescLastValueSkip,
        encoding::SchemeKind::DescBasic,
        encoding::SchemeKind::DynamicZeroCompression,
        encoding::SchemeKind::BusInvert,
        encoding::SchemeKind::ZeroSkipBusInvert,
        encoding::SchemeKind::EncodedZeroSkipBusInvert,
    };
    std::vector<SystemConfig> cfgs;
    for (encoding::SchemeKind kind : schemes) {
        auto cfg = baselineConfig(apps[rng.below(apps.size())]);
        cfg.insts_per_thread = 1000 + rng.below(1000);
        cfg.seed ^= rng.next();
        applyScheme(cfg, kind);
        cfgs.push_back(cfg);
    }
    // One OoO point: a single core with overlapping misses drives the
    // encoders and links with other traffic than the SMT multicore.
    auto ooo = baselineConfig(workloads::findApp("sjeng"));
    ooo.cpu = CpuKind::OutOfOrder;
    ooo.threads_per_core = 1;
    ooo.insts_per_thread = 3000;
    applyScheme(ooo, encoding::SchemeKind::DescZeroSkip);
    cfgs.push_back(ooo);
    return cfgs;
}

/** The sidecar registry JSON for one finished run. */
std::string
sidecarJson(const SystemConfig &cfg, const AppRun &run)
{
    auto reg = buildRunRegistry(cfg, run, configHash(cfg));
    std::ostringstream os;
    writeRegistryJson(os, reg);
    return os.str();
}

/** The serialized run-cache entry bytes for one finished run. */
std::string
cacheEntryBytes(const SystemConfig &cfg, const AppRun &run)
{
    TempCacheDir tmp;
    RunCache cache(tmp.dir);
    cache.store(configHash(cfg), run);
    for (const auto &entry :
         std::filesystem::directory_iterator(tmp.dir)) {
        std::ifstream in(entry.path(), std::ios::binary);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        return bytes.str();
    }
    ADD_FAILURE() << "run cache stored no entry";
    return {};
}

} // namespace

TEST(ModeSweep, CrossProductMatchesReferenceByteExactly)
{
    for (const auto &cfg : sweepConfigs()) {
        const AppRun ref = runWith(scaledConfig(cfg), oracle::makeScheme);
        const std::string ref_json = sidecarJson(cfg, ref);
        const std::string ref_entry = cacheEntryBytes(cfg, ref);
        ASSERT_FALSE(ref_json.empty());
        ASSERT_FALSE(ref_entry.empty());

        // The production kernels, as every run builds them.
        const AppRun got = runScaledApp(scaledConfig(cfg));
        SCOPED_TRACE(cfg.app.name);
        EXPECT_EQ(got.result.cycles, ref.result.cycles);
        EXPECT_EQ(got.result.instructions, ref.result.instructions);
        // The sidecar registry serializes every harvested statistic
        // (perf, l1/l2, link flips, chunk histogram, dram, energy), so
        // byte-identical JSON pins them all at full precision in one
        // comparison.
        EXPECT_EQ(sidecarJson(cfg, got), ref_json);
        EXPECT_EQ(cacheEntryBytes(cfg, got), ref_entry);
    }
}

TEST(ModeSweep, AdaptiveTrackerDoesNotDriftAcrossLinkEngines)
{
    // The adaptive skip tracker carries per-wire saturating counters
    // across transfers; a model that mis-updates them stays
    // bit-identical for a while and drifts later. Stream well past
    // the counter saturation horizon and require lockstep equality
    // between the fast model and the ticked link, and between the
    // link's transmitter and receiver.
    core::DescConfig cfg;
    cfg.bus_wires = 128;
    cfg.chunk_bits = 4;
    cfg.skip = core::SkipMode::Adaptive;

    core::DescScheme scheme(cfg);
    core::DescLink link(cfg);

    Rng rng(0xada9717eULL);
    BitVec prev(cfg.block_bits);
    constexpr int kBlocks = 160; // > 120-block drift horizon
    for (int b = 0; b < kBlocks; b++) {
        BitVec block(cfg.block_bits);
        for (unsigned pos = 0; pos < block.width(); pos += cfg.chunk_bits) {
            double u = rng.uniform();
            std::uint64_t v;
            if (u < 0.4)
                v = 0;
            else if (u < 0.7)
                v = prev.field(pos, cfg.chunk_bits);
            else
                v = rng.below(std::uint64_t{1} << cfg.chunk_bits);
            block.setField(pos, cfg.chunk_bits, v);
        }
        prev = block;

        BitVec got(cfg.block_bits);
        auto rt = link.transferBlock(block, &got);
        auto rf = scheme.transfer(block);
        ASSERT_EQ(rf.cycles, rt.cycles) << "block " << b;
        ASSERT_EQ(rf.data_flips, rt.data_flips) << "block " << b;
        ASSERT_EQ(rf.control_flips, rt.control_flips) << "block " << b;
        ASSERT_EQ(rf.skipped, rt.skipped) << "block " << b;
        ASSERT_EQ(got, block) << "block " << b;
        ASSERT_TRUE(link.tx().adaptive() == link.rx().adaptive())
            << "tx/rx adaptive counters drifted, block " << b;
    }
}
