/**
 * @file
 * End-to-end system tests: the full machine runs to completion,
 * produces deterministic results, and responds to configuration in
 * the directions the paper's experiments rely on.
 */

#include <gtest/gtest.h>

#include "core/factory.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"

using namespace desc;
using namespace desc::sim;

namespace {

SystemConfig
smallConfig(const char *app = "FFT")
{
    SystemConfig cfg = baselineConfig(workloads::findApp(app));
    cfg.insts_per_thread = 5000;
    return cfg;
}

} // namespace

TEST(System, RunsToCompletion)
{
    auto r = runSystem(smallConfig());
    EXPECT_GT(r.cycles, 0u);
    EXPECT_EQ(r.instructions, 32u * 5000u);
    EXPECT_GT(r.hierarchy.l1d_accesses.value(), 0u);
    EXPECT_GT(r.hierarchy.l2_requests.value(), 0u);
}

TEST(System, DeterministicAcrossRuns)
{
    auto a = runSystem(smallConfig());
    auto b = runSystem(smallConfig());
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.hierarchy.data_flips, b.hierarchy.data_flips);
    EXPECT_EQ(a.hierarchy.l2_requests.value(),
              b.hierarchy.l2_requests.value());
}

TEST(System, SeedChangesTheRun)
{
    auto cfg = smallConfig();
    auto a = runSystem(cfg);
    cfg.seed ^= 0x1234;
    auto b = runSystem(cfg);
    EXPECT_NE(a.cycles, b.cycles);
}

TEST(System, WarmupGivesRealisticHitRates)
{
    auto cfg = smallConfig("Water-Nsquared"); // small working set
    auto r = runSystem(cfg);
    double hit_rate = double(r.hierarchy.l2_hits.value())
        / double(r.hierarchy.l2_hits.value()
                 + r.hierarchy.l2_misses.value());
    EXPECT_GT(hit_rate, 0.3);
    double l1_miss = double(r.hierarchy.l1d_misses.value())
        / double(r.hierarchy.l1d_accesses.value());
    EXPECT_LT(l1_miss, 0.3);
}

TEST(System, DescReducesFlipsButLengthensWindows)
{
    auto base_cfg = smallConfig();
    auto base = runSystem(base_cfg);

    auto desc_cfg = base_cfg;
    applyScheme(desc_cfg, encoding::SchemeKind::DescZeroSkip);
    auto with_desc = runSystem(desc_cfg);

    EXPECT_LT(with_desc.hierarchy.data_flips,
              0.7 * base.hierarchy.data_flips);
    EXPECT_GT(with_desc.hierarchy.transfer_window.mean(),
              base.hierarchy.transfer_window.mean());
    EXPECT_GT(with_desc.avgHitDelay(), base.avgHitDelay());
}

TEST(System, OutOfOrderMachineRuns)
{
    auto cfg = smallConfig("sjeng");
    cfg.cpu = CpuKind::OutOfOrder;
    cfg.threads_per_core = 1;
    auto r = runSystem(cfg);
    EXPECT_EQ(r.instructions, 5000u);
    EXPECT_GT(r.cycles, 0u);
}

TEST(System, SnucaMachineRuns)
{
    auto cfg = smallConfig();
    cfg.l2.snuca = true;
    cfg.l2.org.banks = 128;
    cfg.l2.org.bus_wires = 128;
    cfg.l2.scheme_cfg.bus_wires = 128;
    auto r = runSystem(cfg);
    EXPECT_GT(r.cycles, 0u);
}

TEST(System, EveryParallelAppRuns)
{
    for (const auto &app : workloads::parallelApps()) {
        SystemConfig cfg = baselineConfig(app);
        cfg.insts_per_thread = 1500;
        auto r = runSystem(cfg);
        EXPECT_GT(r.cycles, 0u) << app.name;
    }
}

TEST(System, EverySchemeRunsEndToEnd)
{
    for (unsigned s = 0; s < encoding::kNumSchemes; s++) {
        auto cfg = smallConfig();
        cfg.insts_per_thread = 2000;
        applyScheme(cfg, core::allSchemeKinds()[s]);
        auto r = runSystem(cfg);
        EXPECT_GT(r.hierarchy.data_flips + r.hierarchy.ctrl_flips, 0.0)
            << shortSchemeName(core::allSchemeKinds()[s]);
    }
}

TEST(SystemDeath, ShortSchemeNameRejectsBadEnum)
{
    EXPECT_DEATH(shortSchemeName(encoding::SchemeKind(99)),
                 "bad scheme enum");
}
