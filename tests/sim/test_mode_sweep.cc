/**
 * @file
 * Full-system differential sweep over the batched execution engines.
 *
 * Every fast path in the stack — the word-at-a-time batched encoders
 * and the closed-form link — claims bit-identical results to its
 * reference. This suite pins that claim end to end: the link x
 * encoder mode cross product over randomized system configurations
 * must produce identical SimResults, byte-identical stats sidecars,
 * and byte-identical run-cache entries. A link-level case additionally
 * streams enough blocks through an adaptive-skip DESC link to expose
 * any tracker drift between the two engines.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <unistd.h>
#include <vector>

#include "common/rng.hh"
#include "core/link.hh"
#include "encoding/scheme.hh"
#include "sim/runcache.hh"
#include "sim/statdump.hh"
#include "sim/system.hh"

using namespace desc;
using namespace desc::sim;

namespace {

/** One point in the link x encoder engine cross product. */
struct ModePoint
{
    core::LinkMode link;
    encoding::EncoderMode encoder;
    const char *name;
};

constexpr ModePoint kReference = {core::LinkMode::Ticked,
                                  encoding::EncoderMode::Scalar,
                                  "all-reference"};

const std::vector<ModePoint> &
fastPoints()
{
    using core::LinkMode;
    using encoding::EncoderMode;
    static const std::vector<ModePoint> points = {
        {LinkMode::Ticked, EncoderMode::Batched, "batched-encoder"},
        {LinkMode::Fast, EncoderMode::Scalar, "fast-link"},
        {LinkMode::Fast, EncoderMode::Batched, "all-fast"},
    };
    return points;
}

/** Force one point's modes for the enclosing scope. */
struct ForcedModes
{
    explicit ForcedModes(const ModePoint &p)
    {
        core::setDefaultLinkMode(p.link);
        encoding::setDefaultEncoderMode(p.encoder);
    }

    ~ForcedModes()
    {
        core::setDefaultLinkMode(std::nullopt);
        encoding::setDefaultEncoderMode(std::nullopt);
    }
};

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
 * Randomized configurations: a handful of (app, scheme, seed,
 * budget) draws from a fixed-seed generator, so the sweep walks a
 * different-but-reproducible slice of the space than the
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
    };
    std::vector<SystemConfig> cfgs;
    for (int i = 0; i < 3; i++) {
        auto cfg = baselineConfig(apps[rng.below(apps.size())]);
        cfg.insts_per_thread = 1000 + rng.below(1000);
        cfg.seed ^= rng.next();
        applyScheme(cfg, schemes[rng.below(std::size(schemes))]);
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
        std::optional<AppRun> ref;
        {
            ForcedModes forced(kReference);
            ref = runScaledApp(scaledConfig(cfg));
        }
        const std::string ref_json = sidecarJson(cfg, *ref);
        const std::string ref_entry = cacheEntryBytes(cfg, *ref);
        ASSERT_FALSE(ref_json.empty());
        ASSERT_FALSE(ref_entry.empty());

        for (const auto &point : fastPoints()) {
            std::optional<AppRun> got;
            {
                ForcedModes forced(point);
                got = runScaledApp(scaledConfig(cfg));
            }
            SCOPED_TRACE(std::string(cfg.app.name) + " / " + point.name);
            EXPECT_EQ(got->result.cycles, ref->result.cycles);
            EXPECT_EQ(got->result.instructions, ref->result.instructions);
            // The sidecar registry serializes every harvested
            // statistic (perf, l1/l2, link flips, chunk histogram,
            // dram, energy), so byte-identical JSON pins them all at
            // full precision in one comparison.
            EXPECT_EQ(sidecarJson(cfg, *got), ref_json);
            EXPECT_EQ(cacheEntryBytes(cfg, *got), ref_entry);
        }
    }
}

TEST(ModeSweep, AdaptiveTrackerDoesNotDriftAcrossLinkEngines)
{
    // The adaptive skip tracker carries per-wire saturating counters
    // across transfers; a fast path that mis-updates them stays
    // bit-identical for a while and drifts later. Stream well past
    // the counter saturation horizon and require lockstep equality.
    core::DescConfig cfg;
    cfg.bus_wires = 128;
    cfg.chunk_bits = 4;
    cfg.skip = core::SkipMode::Adaptive;

    core::DescLink fast(cfg), ticked(cfg);
    fast.setMode(core::LinkMode::Fast);
    ticked.setMode(core::LinkMode::Ticked);

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

        BitVec got_fast(cfg.block_bits), got_ticked(cfg.block_bits);
        auto rf = fast.transferBlock(block, &got_fast);
        auto rt = ticked.transferBlock(block, &got_ticked);
        ASSERT_EQ(rf.cycles, rt.cycles) << "block " << b;
        ASSERT_EQ(rf.data_flips, rt.data_flips) << "block " << b;
        ASSERT_EQ(rf.control_flips, rt.control_flips) << "block " << b;
        ASSERT_EQ(rf.skipped, rt.skipped) << "block " << b;
        ASSERT_EQ(got_fast, got_ticked) << "block " << b;
        ASSERT_TRUE(fast.tx().adaptive() == ticked.tx().adaptive())
            << "tx adaptive counters drifted, block " << b;
        ASSERT_TRUE(fast.rx().adaptive() == ticked.rx().adaptive())
            << "rx adaptive counters drifted, block " << b;
    }
}
