/**
 * @file
 * Property-based equivalence suite: the behavioral DescScheme must
 * agree bit-exactly with the cycle-accurate transmitter/receiver pair
 * on cycles, data transitions, and control transitions, across the
 * whole configuration space and across value distributions, and the
 * receiver must always recover the transmitted block.
 */

#include <gtest/gtest.h>

#include "equivalence.hh"

using namespace desc;
using namespace desc::core;

TEST_P(DescEquivalence, BehavioralMatchesCycleAccurate)
{
    DescConfig cfg = config();
    DescLink link(cfg);
    DescScheme scheme(cfg);
    Rng rng(0xec0de + cfg.bus_wires * 31 + cfg.chunk_bits);

    BitVec prev(kBlockBits);
    for (int i = 0; i < 40; i++) {
        BitVec block = biasedBlock(rng, prev, cfg.chunk_bits, 0.3, 0.2);
        prev = block;

        BitVec recv;
        auto hw = link.transferBlock(block, &recv);
        auto model = scheme.transfer(block);

        ASSERT_EQ(recv, block) << "round-trip corruption at block " << i;
        EXPECT_EQ(model.cycles, hw.cycles) << "block " << i;
        EXPECT_EQ(model.data_flips, hw.data_flips) << "block " << i;
        EXPECT_EQ(model.control_flips, hw.control_flips) << "block " << i;
        EXPECT_EQ(model.skipped, hw.skipped) << "block " << i;
    }
}

TEST_P(DescEquivalence, RandomizedDifferential)
{
    // Seeded randomized differential test: for each configuration,
    // stream blocks drawn from several value distributions through
    // one long-lived link/scheme pair (so skip state carries across
    // distribution changes) and require bit-exact agreement on every
    // reported statistic.
    DescConfig cfg = config();
    DescLink link(cfg);
    DescScheme scheme(cfg);
    Rng rng(0xd1ff + cfg.bus_wires * 131 + cfg.chunk_bits * 7
            + unsigned(cfg.skip));

    struct Dist
    {
        double zero_p;
        double repeat_p;
    };
    // uniform, zero-rich, repeat-rich, and mixed traffic
    const Dist dists[] = {{0.0, 0.0}, {0.7, 0.1}, {0.1, 0.7}, {0.4, 0.4}};

    BitVec prev(kBlockBits);
    int n = 0;
    for (const Dist &d : dists) {
        for (int i = 0; i < 25; i++, n++) {
            BitVec block =
                biasedBlock(rng, prev, cfg.chunk_bits, d.zero_p, d.repeat_p);
            prev = block;

            BitVec recv;
            auto hw = link.transferBlock(block, &recv);
            auto model = scheme.transfer(block);

            ASSERT_EQ(recv, block) << "round-trip corruption at block " << n;
            ASSERT_EQ(model.cycles, hw.cycles) << "block " << n;
            ASSERT_EQ(model.data_flips, hw.data_flips) << "block " << n;
            ASSERT_EQ(model.control_flips, hw.control_flips)
                << "block " << n;
            ASSERT_EQ(model.skipped, hw.skipped) << "block " << n;
        }
    }
}

TEST_P(DescEquivalence, AllZeroAndAllOnesBlocks)
{
    DescConfig cfg = config();
    DescLink link(cfg);
    DescScheme scheme(cfg);

    BitVec zeros(kBlockBits);
    BitVec ones(kBlockBits);
    ones.invertRange(0, kBlockBits);

    for (const BitVec &block : {zeros, ones, zeros, zeros, ones}) {
        BitVec recv;
        auto hw = link.transferBlock(block, &recv);
        auto model = scheme.transfer(block);
        ASSERT_EQ(recv, block);
        EXPECT_EQ(model.cycles, hw.cycles);
        EXPECT_EQ(model.data_flips, hw.data_flips);
        EXPECT_EQ(model.control_flips, hw.control_flips);
    }
}

TEST_P(DescEquivalence, DataFlipsNeverExceedChunkCount)
{
    DescConfig cfg = config();
    DescScheme scheme(cfg);
    Rng rng(77);
    BitVec prev(kBlockBits);
    for (int i = 0; i < 50; i++) {
        BitVec block = biasedBlock(rng, prev, cfg.chunk_bits, 0.1, 0.1);
        prev = block;
        auto r = scheme.transfer(block);
        EXPECT_LE(r.data_flips, cfg.numChunks());
        EXPECT_EQ(r.data_flips + r.skipped, cfg.numChunks());
    }
}

TEST_P(DescEquivalence, WindowBoundedByWorstCase)
{
    DescConfig cfg = config();
    DescScheme scheme(cfg);
    Rng rng(78);
    // Worst case per wave is the largest pulse delay; basic mode
    // additionally streams numWaves chunks per wire back to back.
    const Cycle max_delay = (Cycle{1} << cfg.chunk_bits);
    const Cycle bound = 1 + cfg.numWaves() * max_delay;
    BitVec prev(kBlockBits);
    for (int i = 0; i < 50; i++) {
        BitVec block = biasedBlock(rng, prev, cfg.chunk_bits, 0.3, 0.3);
        prev = block;
        EXPECT_LE(scheme.transfer(block).cycles, bound);
    }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigSpace, DescEquivalence,
    ::testing::Combine(
        ::testing::Values(16u, 32u, 64u, 128u, 256u),
        ::testing::Values(1u, 2u, 4u, 8u),
        ::testing::Values(SkipMode::None, SkipMode::Zero,
                          SkipMode::LastValue, SkipMode::Adaptive)),
    equivalenceParamName);

TEST(TickedFastDrift, NoDriftOver240AdaptiveBlocks)
{
    // Long-horizon drift probe: the ticked link and the fast model
    // consume the same 240-block stream with adaptive trackers live
    // (the skip value of every wave depends on the whole history).
    // Every reported statistic and every recovered block must stay
    // bit-identical, and the link's two endpoints must keep identical
    // last-value tables and adaptive counters the entire way — one
    // silently mismatched chunk would compound for the rest of the
    // stream.
    DescConfig cfg;
    cfg.bus_wires = 64;
    cfg.chunk_bits = 4;
    cfg.block_bits = kBlockBits;
    cfg.skip = SkipMode::Adaptive;

    DescLink link(cfg);
    DescScheme scheme(cfg);

    Rng rng(0xd21f7);
    struct Dist
    {
        double zero_p;
        double repeat_p;
    };
    const Dist dists[] = {{0.0, 0.0}, {0.7, 0.1}, {0.1, 0.7}, {0.4, 0.4}};

    BitVec prev(kBlockBits);
    int n = 0;
    for (const Dist &d : dists) {
        for (int i = 0; i < 60; i++, n++) {
            BitVec block =
                biasedBlock(rng, prev, cfg.chunk_bits, d.zero_p, d.repeat_p);
            prev = block;
            ASSERT_NO_FATAL_FAILURE(
                expectSchemesMatchLink({&scheme}, link, block, n));
        }
    }
    EXPECT_EQ(n, 240);
}
