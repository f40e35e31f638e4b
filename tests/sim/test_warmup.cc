/**
 * @file
 * The functional warmup's direct build (MemHierarchy::prefillRuns())
 * against the reference prefill() walk of the same runs: the same L2
 * tags, LRU stamps, clock and line state, and the same hits, misses
 * and fills in the accesses that follow.
 */

#include <gtest/gtest.h>

#include <span>
#include <tuple>
#include <vector>

#include "sim/experiment.hh"
#include "sim/system.hh"
#include "workloads/backing.hh"

using namespace desc;
using namespace desc::sim;
using cache::BlockRun;

namespace {

unsigned
coresOf(const SystemConfig &cfg)
{
    return cfg.cpu == CpuKind::OutOfOrder ? 1 : cfg.cores;
}

/** A hierarchy as runSystem() builds it, before the warmup. */
struct Machine
{
    EventQueue eq;
    workloads::ValueBackingStore backing;
    cache::MemHierarchy mem;

    explicit Machine(const SystemConfig &cfg)
        : backing(cfg.app, cfg.seed),
          mem(eq, cfg.l2, backing, coresOf(cfg), cfg.l1, cfg.dram)
    {
    }
};

void
walkRuns(cache::MemHierarchy &mem, std::span<const BlockRun> runs)
{
    for (const BlockRun &r : runs) {
        for (std::uint64_t i = 0; i < r.blocks; i++)
            mem.prefill(r.base + i * 64);
    }
}

/** Everything one L2 line holds after the warmup. */
template <typename Array>
auto
lineState(const Array &a, std::uint32_t way)
{
    const auto &m = a.meta(way);
    return std::tuple(a.valid(way), a.valid(way) ? a.addrOf(way) : Addr{0},
                      a.stamp(way), m.virgin, m.dirty, m.sharers, m.owner);
}

/**
 * Reads and stores from every core over the warmed runs and the
 * blocks just past them: hits on virgin lines, misses that evict
 * warmed lines, and dirty evictions.
 */
void
drive(Machine &m, std::span<const BlockRun> runs, unsigned cores)
{
    const cache::DoneCb ignore{[](void *, unsigned) {}};
    std::uint64_t x = 1;
    for (unsigned i = 0; i < 3000; i++) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const BlockRun &r = runs[(x >> 33) % runs.size()];
        const Addr a =
            r.base + ((x >> 12) % (r.blocks + 16)) * 64 + (i % 8) * 8;
        m.mem.access(i % cores, a, i % 5 == 0, x, false, ignore);
        m.eq.run();
    }
}

/**
 * @p walked was warmed by the prefill() walk of @p runs. A fresh
 * machine of @p cfg built with prefillRuns(@p runs) must hold the same
 * L2 and then behave the same. Returns the number of installs.
 */
std::uint64_t
expectBuildMatches(Machine &walked, const SystemConfig &cfg,
                   std::span<const BlockRun> runs)
{
    Machine built(cfg);
    built.mem.prefillRuns(runs);

    const auto &w = walked.mem.l2Array();
    const auto &b = built.mem.l2Array();
    const std::uint64_t installs = w.lruClock();
    EXPECT_EQ(b.lruClock(), installs);
    std::uint64_t valid = 0;
    std::uint64_t differing = 0;
    const auto lines = std::uint64_t(w.numSets()) * w.assoc();
    for (std::uint32_t way = 0; way < lines; way++) {
        if (lineState(w, way) != lineState(b, way) && differing++ == 0)
            ADD_FAILURE() << "first differing L2 line: way " << way;
        valid += w.valid(way);
    }
    EXPECT_EQ(differing, 0u) << "of " << lines << " lines";
    EXPECT_GT(valid, 0u);

    for (Machine *m : {&walked, &built})
        drive(*m, runs, coresOf(cfg));
    const cache::HierarchyStats &ws = walked.mem.stats();
    const cache::HierarchyStats &bs = built.mem.stats();
    EXPECT_GT(ws.l2_hits.value(), 0u);
    EXPECT_GT(ws.l2_misses.value(), 0u);
    EXPECT_EQ(bs.l2_hits.value(), ws.l2_hits.value());
    EXPECT_EQ(bs.l2_misses.value(), ws.l2_misses.value());
    EXPECT_EQ(bs.l2_fills.value(), ws.l2_fills.value());
    EXPECT_EQ(bs.l2_evictions_out.value(), ws.l2_evictions_out.value());
    EXPECT_EQ(bs.read_transfers.value(), ws.read_transfers.value());
    EXPECT_EQ(bs.write_transfers.value(), ws.write_transfers.value());
    EXPECT_EQ(bs.data_flips, ws.data_flips);
    EXPECT_EQ(built.eq.now(), walked.eq.now());
    return installs;
}

/** The runSystem() warmup of @p cfg against prefillWalk(). */
void
expectWarmupMatchesPrefillWalk(const SystemConfig &cfg)
{
    Machine walked(cfg);
    const std::uint64_t installs = prefillWalk(walked.mem, cfg);
    EXPECT_EQ(expectBuildMatches(walked, cfg, warmupRuns(cfg)), installs);
}

/** FFT on the baseline machine, with an L2 of @p capacity bytes. */
SystemConfig
fftConfig(std::uint64_t capacity = 8ull << 20)
{
    SystemConfig cfg = baselineConfig(workloads::findApp("FFT"));
    cfg.l2.org.capacity_bytes = capacity;
    return cfg;
}

} // namespace

TEST(Warmup, BaselineBuildMatchesPrefillWalk)
{
    // 8 MB, 16-way L2 warmed for 32 threads.
    const SystemConfig cfg = fftConfig();
    ASSERT_EQ(cfg.cores * cfg.threads_per_core, 32u);
    ASSERT_EQ(cfg.l2.org.assoc, 16u);
    expectWarmupMatchesPrefillWalk(cfg);
}

TEST(Warmup, OooBuildMatchesPrefillWalk)
{
    SystemConfig cfg = baselineConfig(workloads::specApps().front());
    cfg.cpu = CpuKind::OutOfOrder;
    cfg.threads_per_core = 1;
    expectWarmupMatchesPrefillWalk(cfg);
}

TEST(Warmup, SmallestAndLargestFig27CapacitiesMatchPrefillWalk)
{
    for (std::uint64_t capacity : {512ull << 10, 64ull << 20}) {
        SCOPED_TRACE(capacity);
        expectWarmupMatchesPrefillWalk(fftConfig(capacity));
    }
}

TEST(Warmup, OverflowingSetsMatchPrefillWalk)
{
    // A 64 KB L2 (64 sets of 16) taking 3,900 installs: every set
    // wraps ~3.8 times, and runs that start on the same set or
    // mid-way collide, so the FIFO order across runs decides which
    // blocks survive.
    const SystemConfig cfg = fftConfig(64 * 1024);
    const std::vector<BlockRun> runs = {
        {0x100000, 1200},
        {0x200000, 700},
        {0x300000 + 5 * 64, 1000},
        {0x400000 + 63 * 64, 1},
        {0x500000, 999},
    };
    Machine walked(cfg);
    walkRuns(walked.mem, runs);
    EXPECT_EQ(expectBuildMatches(walked, cfg, runs), 3900u);
}

TEST(Warmup, ZeroBlockRunsMatchPrefillWalk)
{
    // Empty runs first, last, in between and at another run's base.
    const SystemConfig cfg = fftConfig(64 * 1024);
    const std::vector<BlockRun> runs = {
        {0x100000, 0},
        {0x100000, 300},
        {0x200000, 0},
        {0x300000, 900},
        {0x400000, 0},
    };
    Machine walked(cfg);
    walkRuns(walked.mem, runs);
    EXPECT_EQ(expectBuildMatches(walked, cfg, runs), 1200u);
}

TEST(WarmupDeathTest, OverlappingRunsAreRejected)
{
    Machine m(fftConfig(64 * 1024));
    // The second run's first block is the first run's last one.
    const std::vector<BlockRun> runs = {
        {0x100000, 10},
        {0x100000 + 9 * 64, 10},
    };
    EXPECT_DEATH(m.mem.prefillRuns(runs), "overlapping runs");
}

TEST(WarmupDeathTest, UnalignedRunIsRejected)
{
    Machine m(fftConfig(64 * 1024));
    const std::vector<BlockRun> runs = {{0x100000 + 8, 10}};
    EXPECT_DEATH(m.mem.prefillRuns(runs), "block-aligned");
}

TEST(WarmupDeathTest, BuildIntoUsedArrayIsRejected)
{
    Machine m(fftConfig(64 * 1024));
    m.mem.prefill(0x900000);
    const std::vector<BlockRun> runs = {{0x100000, 10}};
    EXPECT_DEATH(m.mem.prefillRuns(runs), "fresh array");
}
