/**
 * @file
 * Tests for the DescLink fault-injection hook: the plumbing the ECC
 * experiments rely on, exercised with faults the receiver tolerates.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/link.hh"

using namespace desc;
using namespace desc::core;

namespace {

DescConfig
smallCfg(SkipMode skip)
{
    DescConfig cfg;
    cfg.bus_wires = 16;
    cfg.chunk_bits = 4;
    cfg.block_bits = 64;
    cfg.skip = skip;
    return cfg;
}

} // namespace

TEST(LinkFaults, HookObservesEveryCycle)
{
    DescLink link(smallCfg(SkipMode::Zero));
    Cycle observed = 0;
    link.setFaultHook([&](Cycle, WireBundle &) { observed++; });
    BitVec block(64, 0x123456789abcdef0ull);
    auto r = link.transferBlock(block);
    EXPECT_EQ(observed, r.cycles);
}

TEST(LinkFaults, SyncWireGlitchIsHarmlessToData)
{
    // The sync strobe carries only timing in our model; a glitch on
    // it must not corrupt decoded data (the receiver's detectors are
    // per-wire).
    DescLink link(smallCfg(SkipMode::Zero));
    Rng rng(5);
    link.setFaultHook([&](Cycle, WireBundle &w) {
        if (rng.chance(0.3))
            w.sync = !w.sync;
    });
    for (int i = 0; i < 30; i++) {
        BitVec block(64);
        block.randomize(rng);
        BitVec recv;
        link.transferBlock(block, &recv);
        ASSERT_EQ(recv, block);
    }
}

TEST(LinkFaults, DelayedToggleCorruptsExactlyOneChunkValue)
{
    // Suppress a data toggle for one cycle (it arrives a cycle late):
    // the receiver decodes a value one higher; everything else is
    // intact. This is the chunk-level fault model the interleaved
    // SECDED layout (Figure 9) is designed for.
    DescConfig cfg = smallCfg(SkipMode::None);
    DescLink link(cfg);

    // Chunks 0..15 get values 0..15 -> wire w toggles at cycle v+1.
    BitVec block(64);
    for (unsigned c = 0; c < 16; c++)
        block.setField(c * 4, 4, c);

    // Delay wire 5's toggle by one cycle: mask the new level at the
    // cycle it first appears, reapply afterwards.
    bool armed = true;
    bool prev_level = false;
    link.setFaultHook([&](Cycle, WireBundle &w) {
        if (armed && w.data.bit(5) != prev_level) {
            w.data.setBit(5, prev_level); // suppress for one cycle
            armed = false;
            return;
        }
        prev_level = w.data.bit(5);
    });

    BitVec recv;
    link.transferBlock(block, &recv);
    EXPECT_NE(recv, block);
    // Only chunk 5 differs, and by exactly +1 (value 5 -> 6).
    for (unsigned c = 0; c < 16; c++) {
        if (c == 5)
            EXPECT_EQ(recv.field(c * 4, 4), 6u);
        else
            EXPECT_EQ(recv.field(c * 4, 4), c);
    }
}
