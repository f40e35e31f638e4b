/**
 * @file
 * The fast DESC model against the one link engine (DESIGN.md §10).
 *
 * DescScheme is the closed form every simulated L2 transfer is charged
 * through; DescLink ticks the transmitter/receiver pair cycle by
 * cycle. Fed the same block stream, DescScheme and its scalar oracle
 * (oracle::DescScalar) must agree bit-exactly with the link on every
 * TransferResult field, while the link recovers every block and keeps
 * its endpoints' last-value tables and adaptive counters in step —
 * across a mid-stream reset(), on the ECC bus layouts and on odd chunk
 * widths too. The LinkFastPathSelect cases pin what only the ticked
 * engine offers: per-cycle hooks, the link trace channel, and an
 * optional received block.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>

#include "common/trace.hh"
#include "ecc/blockcodec.hh"
#include "equivalence.hh"

using namespace desc;
using namespace desc::core;

namespace {

void
expectSameResult(const encoding::TransferResult &a,
                 const encoding::TransferResult &b, int block_no)
{
    EXPECT_EQ(a.cycles, b.cycles) << "block " << block_no;
    EXPECT_EQ(a.data_flips, b.data_flips) << "block " << block_no;
    EXPECT_EQ(a.control_flips, b.control_flips) << "block " << block_no;
    EXPECT_EQ(a.skipped, b.skipped) << "block " << block_no;
}

} // namespace

class LinkFastPath : public DescEquivalence
{
  protected:
    LinkFastPath()
        : link(config()), kernel(config()), ref(config())
    {
    }

    /** One block through the link, the kernel and the oracle. */
    void
    step(const BitVec &block, int block_no)
    {
        expectSchemesMatchLink({&kernel, &ref}, link, block, block_no);
    }

    DescLink link;
    DescScheme kernel;
    oracle::DescScalar ref;
};

TEST_P(LinkFastPath, BitIdenticalToTickedLoop)
{
    const DescConfig cfg = config();
    // SWAR lanes on whole-word waves; the scalar lane for adaptive
    // skip, multi-wave basic mode and waves of under 64 bits.
    const bool whole_words = cfg.numWaves() == 1
        || cfg.activeWires() * cfg.chunk_bits % 64 == 0;
    EXPECT_EQ(kernel.usesBatchedPath(),
              cfg.skip != SkipMode::Adaptive && whole_words
                  && (cfg.skip != SkipMode::None || cfg.numWaves() == 1));
    Rng rng(0xfa57 + cfg.bus_wires * 131 + cfg.chunk_bits * 7
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
            ASSERT_NO_FATAL_FAILURE(step(block, n));
        }
    }
}

TEST_P(LinkFastPath, ExtremeBlocks)
{
    BitVec zeros(kBlockBits);
    BitVec ones(kBlockBits);
    ones.invertRange(0, kBlockBits);

    int n = 0;
    for (const BitVec &block : {zeros, ones, zeros, zeros, ones})
        ASSERT_NO_FATAL_FAILURE(step(block, n++));
}

TEST_P(LinkFastPath, InterleavedPathsMatchPureTicked)
{
    // reset() must return the link endpoints and both models to the
    // state of a fresh instance: after a mid-stream reset they keep
    // agreeing with each other and with a scheme built at that point.
    const DescConfig cfg = config();
    Rng rng(0x1237 + cfg.bus_wires + cfg.chunk_bits);

    std::optional<DescScheme> fresh;
    BitVec prev(kBlockBits);
    for (int i = 0; i < 60; i++) {
        BitVec block = biasedBlock(rng, prev, cfg.chunk_bits, 0.4, 0.3);
        prev = block;
        if (i == 30) {
            link.reset();
            kernel.reset();
            ref.reset();
            fresh.emplace(cfg);
        }
        if (fresh) {
            ASSERT_NO_FATAL_FAILURE(expectSchemesMatchLink(
                {&kernel, &ref, &*fresh}, link, block, i));
        } else {
            ASSERT_NO_FATAL_FAILURE(step(block, i));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigSpace, LinkFastPath,
    ::testing::Combine(
        ::testing::Values(16u, 32u, 64u, 128u, 256u),
        ::testing::Values(1u, 2u, 4u, 8u),
        ::testing::Values(SkipMode::None, SkipMode::Zero,
                          SkipMode::LastValue, SkipMode::Adaptive)),
    equivalenceParamName);

TEST(LinkFastPathEcc, EccLayoutsMatchTicked)
{
    // The ECC bus layouts of Figure 9, as the hierarchy sends them on
    // every SECDED transfer: the (137,128) and (72,64) codes widen the
    // bus by the parity chunks, giving non-power-of-two wire counts
    // and block widths. Each layout is a single wave: 548 bits for
    // (137,128), ending in a partial 64-bit word, and 576 bits, exactly
    // nine words, for (72,64). Codec-encoded words stream through the
    // kernel's SWAR lane, the oracle and the ticked link block by block.
    for (unsigned seg_bits : {128u, 64u}) {
        for (SkipMode skip : {SkipMode::Zero, SkipMode::LastValue}) {
            ecc::BlockCodec codec(kBlockBits, seg_bits);
            ASSERT_EQ(codec.totalParityBits() % 4, 0u);

            DescConfig cfg;
            cfg.chunk_bits = 4;
            cfg.block_bits = codec.busBits();
            cfg.bus_wires = 128 + codec.totalParityBits() / 4;
            cfg.skip = skip;
            ASSERT_EQ(cfg.numWaves(), 1u);
            SCOPED_TRACE("seg " + std::to_string(seg_bits) + ", "
                         + skipModeName(skip));

            DescLink link(cfg);
            DescScheme kernel(cfg);
            oracle::DescScalar ref(cfg);
            ASSERT_TRUE(kernel.usesBatchedPath());
            Rng rng(0xecc0 + seg_bits + unsigned(skip));

            BitVec prev(kBlockBits);
            BitVec bus;
            for (int i = 0; i < 30; i++) {
                BitVec payload = biasedBlock(rng, prev, 4, 0.5, 0.2);
                prev = payload;
                codec.encodeInto(payload, bus);
                ASSERT_NO_FATAL_FAILURE(expectSchemesMatchLink(
                    {&kernel, &ref}, link, bus, i));
            }
        }
    }
}

TEST(LinkFastPathOdd, OddChunkWidthsMatchTicked)
{
    // Chunk widths that do not pack a 64-bit word, on block widths
    // they divide, in one- and multi-wave layouts: the kernel's scalar
    // lane for every skip mode.
    struct Layout
    {
        unsigned chunk_bits, block_bits, wires;
    };
    const Layout layouts[] = {{3, 576, 192}, {3, 576, 64}, {5, 560, 16},
                              {6, 576, 32},  {7, 560, 80}};
    for (const Layout &l : layouts) {
        for (SkipMode skip : {SkipMode::None, SkipMode::Zero,
                              SkipMode::LastValue, SkipMode::Adaptive}) {
            DescConfig cfg;
            cfg.chunk_bits = l.chunk_bits;
            cfg.block_bits = l.block_bits;
            cfg.bus_wires = l.wires;
            cfg.skip = skip;
            SCOPED_TRACE("c" + std::to_string(l.chunk_bits) + " w"
                         + std::to_string(l.wires) + " "
                         + skipModeName(skip));

            DescLink link(cfg);
            DescScheme kernel(cfg);
            oracle::DescScalar ref(cfg);
            ASSERT_FALSE(kernel.usesBatchedPath());
            Rng rng(0x0dd0 + l.chunk_bits * 31 + l.wires + unsigned(skip));
            BitVec prev(cfg.block_bits);
            for (int i = 0; i < 30; i++) {
                BitVec block =
                    biasedBlock(rng, prev, cfg.chunk_bits, 0.4, 0.3);
                prev = block;
                ASSERT_NO_FATAL_FAILURE(expectSchemesMatchLink(
                    {&kernel, &ref}, link, block, i));
            }
        }
    }
}

TEST(LinkFastPathSelect, AutoUsesFastPathWhenUnobserved)
{
    // There is one engine: attaching observers changes nothing a
    // caller sees, so an unobserved link and a hooked one agree on
    // every result and received block.
    DescConfig cfg;
    cfg.skip = SkipMode::LastValue;
    DescLink plain(cfg);
    DescLink hooked(cfg);
    hooked.setWireHook([](Cycle, const WireBundle &) {});
    hooked.setFaultHook([](Cycle, WireBundle &) {});
    Rng rng(0xa070);

    BitVec prev(cfg.block_bits);
    for (int i = 0; i < 10; i++) {
        BitVec block = biasedBlock(rng, prev, cfg.chunk_bits, 0.3, 0.3);
        prev = block;
        BitVec got_plain, got_hooked;
        auto a = plain.transferBlock(block, &got_plain);
        auto b = hooked.transferBlock(block, &got_hooked);
        expectSameResult(a, b, i);
        EXPECT_EQ(got_plain, got_hooked) << "block " << i;
    }
}

TEST(LinkFastPathSelect, WireHookForcesTickedLoop)
{
    // The wire observer sees every transfer cycle exactly once, stamped
    // with the link's monotonic cycle count.
    DescConfig cfg;
    DescLink link(cfg);
    std::uint64_t observed = 0;
    Cycle next = 0;
    link.setWireHook([&](Cycle t, const WireBundle &) {
        EXPECT_EQ(t, next);
        next = t + 1;
        observed++;
    });
    BitVec block(cfg.block_bits);
    auto r1 = link.transferBlock(block);
    block.invertRange(0, cfg.block_bits);
    auto r2 = link.transferBlock(block);
    EXPECT_EQ(observed, r1.cycles + r2.cycles);
}

TEST(LinkFastPathSelect, FaultHookForcesTickedLoop)
{
    DescConfig cfg;
    DescLink link(cfg);
    std::uint64_t observed = 0;
    link.setFaultHook([&](Cycle, WireBundle &) { observed++; });
    BitVec block(cfg.block_bits);
    auto r = link.transferBlock(block);
    EXPECT_EQ(observed, r.cycles);
}

TEST(LinkFastPathSelect, ForcedFastStillTicksBehindHooks)
{
    // With both hooks attached, each fires once per cycle, the fault
    // hook first: the observer sees the bundle after injection.
    DescConfig cfg;
    DescLink link(cfg);
    std::uint64_t faults = 0, observed = 0;
    link.setFaultHook([&](Cycle, WireBundle &w) {
        faults++;
        w.sync = true; // visible to the observer, same cycle
    });
    link.setWireHook([&](Cycle, const WireBundle &w) {
        observed++;
        EXPECT_EQ(observed, faults);
        EXPECT_TRUE(w.sync);
    });
    BitVec block(cfg.block_bits);
    auto r = link.transferBlock(block);
    EXPECT_EQ(faults, r.cycles);
    EXPECT_EQ(observed, r.cycles);
}

TEST(LinkFastPathSelect, LinkTraceChannelForcesTickedLoop)
{
    // The link trace channel reports each transfer and each wave the
    // transmitter opens.
    DescConfig cfg;
    cfg.skip = SkipMode::Zero;
    DescLink link(cfg);
    BitVec block(cfg.block_bits);
    block.setField(0, 4, 9);

    std::FILE *out = std::tmpfile();
    ASSERT_NE(out, nullptr);
    const std::uint32_t saved_mask = trace::mask();
    trace::setMask(1u << unsigned(trace::Channel::Link));
    trace::setStream(out);
    link.transferBlock(block);
    trace::setStream(nullptr);
    trace::setMask(saved_mask);

    std::string text;
    std::rewind(out);
    for (int c; (c = std::fgetc(out)) != EOF;)
        text += char(c);
    std::fclose(out);
    EXPECT_NE(text.find("tx: wave 0 open"), std::string::npos) << text;
    EXPECT_NE(text.find("block transferred"), std::string::npos) << text;
}

TEST(LinkFastPathSelect, NullReceivedPointerWorksOnBothPaths)
{
    // Dropping the received block must not change the transfer or the
    // endpoint state the next transfer starts from.
    DescConfig cfg;
    cfg.skip = SkipMode::LastValue;
    DescLink dropped(cfg);
    DescLink kept(cfg);
    DescScheme scheme(cfg);
    Rng rng(42);

    BitVec prev(cfg.block_bits);
    for (int i = 0; i < 10; i++) {
        BitVec block = biasedBlock(rng, prev, cfg.chunk_bits, 0.3, 0.3);
        prev = block;
        auto rd = dropped.transferBlock(block); // received == nullptr
        BitVec got;
        auto rk = kept.transferBlock(block, &got);
        EXPECT_EQ(got, block) << "block " << i;
        expectSameResult(rd, rk, i);
        expectSameResult(rd, scheme.transfer(block), i);
        EXPECT_EQ(dropped.rx().lastValues(), kept.rx().lastValues())
            << "block " << i;
    }
}
