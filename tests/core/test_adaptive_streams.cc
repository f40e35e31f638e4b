/**
 * @file
 * Adaptive-skip long-stream property of the DESC equivalence suite.
 *
 * It holds only for SkipMode::Adaptive, so it is instantiated over the
 * 20 adaptive configs alone rather than over the suite's full 80-config
 * space. gtest runs every TEST_P of a suite over every instantiation
 * in the same binary, so this case lives in its own executable
 * (tests_core_adaptive); it keeps the suite's fixture and case names.
 */

#include <gtest/gtest.h>

#include "equivalence.hh"

using namespace desc;
using namespace desc::core;

TEST_P(DescEquivalence, AdaptiveCountersSurviveLongStreams)
{
    // The adaptive skip value is pure history: transmitter and
    // receiver counters must track each other — and the fast model
    // and its scalar oracle must track the ticked link — across a
    // long run of consecutive blocks, because one divergent count
    // eventually flips a best-value decision and corrupts every later
    // transfer.
    DescConfig cfg = config();

    DescLink link(cfg);
    DescScheme scheme(cfg);
    oracle::DescScalar ref(cfg);
    Rng rng(0xadab + cfg.bus_wires * 3 + cfg.chunk_bits);

    BitVec prev(kBlockBits);
    for (int i = 0; i < 120; i++) {
        // Shift the distribution mid-stream so the trackers decay and
        // re-learn different frequent values.
        double zero_p = i < 60 ? 0.6 : 0.05;
        double repeat_p = i < 60 ? 0.1 : 0.6;
        BitVec block = biasedBlock(rng, prev, cfg.chunk_bits, zero_p,
                                   repeat_p);
        prev = block;
        ASSERT_NO_FATAL_FAILURE(
            expectSchemesMatchLink({&scheme, &ref}, link, block, i));
    }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigSpace, DescEquivalence,
    ::testing::Combine(::testing::Values(16u, 32u, 64u, 128u, 256u),
                       ::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(SkipMode::Adaptive)),
    equivalenceParamName);
