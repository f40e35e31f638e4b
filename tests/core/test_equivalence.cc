/**
 * @file
 * The DESC equivalence suite: the fast model against the ticked link
 * (DESIGN.md §10).
 *
 * DescScheme is the closed form every simulated L2 transfer is charged
 * through; DescLink ticks the transmitter/receiver pair cycle by
 * cycle. Fed the same block stream, DescScheme and its scalar oracle
 * (oracle::DescScalar) must agree bit-exactly with the link on every
 * TransferResult field, while the link recovers every block and keeps
 * its endpoints' last-value tables and adaptive counters in step.
 *
 * DescEquivalence runs over the 80-config space (wires x chunk bits x
 * skip mode): a short stream, a stream over four value distributions,
 * the all-zero and all-one blocks, a 240-block stream past the
 * adaptive counters' saturation horizon, and two DescScheme bounds.
 * LinkFastPath, the same fixture over the same configs, adds the
 * kernel's lane selection, blocks of alternating empty and longest
 * chunks, and a mid-stream reset(). LinkFastPathEcc and LinkFastPathOdd
 * cover the ECC bus layouts and odd chunk widths; the
 * LinkFastPathSelect cases pin what only the ticked link offers:
 * per-cycle hooks, the link trace channel, and an optional received
 * block. The LinkFastPath names date from a link that had a second,
 * batched engine; each case's comment says what it checks now.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <initializer_list>
#include <optional>
#include <string>
#include <tuple>

#include "common/rng.hh"
#include "common/trace.hh"
#include "core/descscheme.hh"
#include "core/link.hh"
#include "ecc/blockcodec.hh"
#include "oracle/oracle.hh"

using namespace desc;
using namespace desc::core;

namespace {

/** Draw a block whose chunk values are biased toward zero and toward
 *  repeating the previous block, like real cache traffic. */
BitVec
biasedBlock(Rng &rng, const BitVec &prev, unsigned chunk_bits,
            double zero_p, double repeat_p)
{
    BitVec block(prev.width());
    for (unsigned pos = 0; pos < block.width(); pos += chunk_bits) {
        double u = rng.uniform();
        std::uint64_t v;
        if (u < zero_p)
            v = 0;
        else if (u < zero_p + repeat_p)
            v = prev.field(pos, chunk_bits);
        else
            v = rng.below(std::uint64_t{1} << chunk_bits);
        block.setField(pos, chunk_bits, v);
    }
    return block;
}

struct Dist
{
    double zero_p;
    double repeat_p;
};

/** Uniform, zero-rich, repeat-rich, and mixed traffic. */
constexpr Dist kDists[] = {{0.0, 0.0}, {0.7, 0.1}, {0.1, 0.7}, {0.4, 0.4}};

/**
 * Move @p block over the ticked @p link and through each of
 * @p schemes (DescScheme kernels and oracle::DescScalar walks), and
 * require what every DESC model and the link must share: identical
 * TransferResults, the block recovered intact, and the two link
 * endpoints in step (last-value tables, adaptive counters). Fatal
 * failures return from here only; wrap calls in
 * ASSERT_NO_FATAL_FAILURE.
 */
void
expectSchemesMatchLink(
    std::initializer_list<encoding::TransferScheme *> schemes,
    DescLink &link, const BitVec &block, int block_no)
{
    BitVec recv;
    const auto hw = link.transferBlock(block, &recv);
    ASSERT_EQ(recv, block) << "round-trip corruption at block " << block_no;
    for (encoding::TransferScheme *scheme : schemes) {
        const auto model = scheme->transfer(block);
        SCOPED_TRACE(scheme->name());
        ASSERT_EQ(model.cycles, hw.cycles) << "block " << block_no;
        ASSERT_EQ(model.data_flips, hw.data_flips) << "block " << block_no;
        ASSERT_EQ(model.control_flips, hw.control_flips)
            << "block " << block_no;
        ASSERT_EQ(model.skipped, hw.skipped) << "block " << block_no;
    }
    ASSERT_EQ(link.tx().lastValues(), link.rx().lastValues())
        << "tx/rx last-value tables diverged at block " << block_no;
    ASSERT_TRUE(link.tx().adaptive() == link.rx().adaptive())
        << "tx/rx adaptive counters diverged at block " << block_no;
}

void
expectSameResult(const encoding::TransferResult &a,
                 const encoding::TransferResult &b, int block_no)
{
    EXPECT_EQ(a.cycles, b.cycles) << "block " << block_no;
    EXPECT_EQ(a.data_flips, b.data_flips) << "block " << block_no;
    EXPECT_EQ(a.control_flips, b.control_flips) << "block " << block_no;
    EXPECT_EQ(a.skipped, b.skipped) << "block " << block_no;
}

/**
 * @p per_dist blocks of each of kDists, in turn, through @p link and
 * @p schemes (configured for kBlockBits-wide blocks), so skip state
 * carries across the distribution changes.
 */
void
expectStreamMatchesLink(
    std::initializer_list<encoding::TransferScheme *> schemes,
    DescLink &link, unsigned chunk_bits, Rng &rng, int per_dist)
{
    BitVec prev(kBlockBits);
    int n = 0;
    for (const Dist &d : kDists) {
        for (int i = 0; i < per_dist; i++, n++) {
            BitVec block =
                biasedBlock(rng, prev, chunk_bits, d.zero_p, d.repeat_p);
            prev = block;
            ASSERT_NO_FATAL_FAILURE(
                expectSchemesMatchLink(schemes, link, block, n));
        }
    }
}

/** (wires, chunk_bits, skip mode) */
using EquivalenceParam = std::tuple<unsigned, unsigned, SkipMode>;

/** Case name suffix, e.g. "w64_c4_adaptive". */
std::string
equivalenceParamName(const ::testing::TestParamInfo<EquivalenceParam> &info)
{
    auto [wires, bits, skip] = info.param;
    std::string name = "w" + std::to_string(wires) + "_c"
        + std::to_string(bits) + "_";
    switch (skip) {
      case SkipMode::None:
        return name + "basic";
      case SkipMode::Zero:
        return name + "zero";
      case SkipMode::LastValue:
        return name + "last";
      case SkipMode::Adaptive:
        return name + "adaptive";
    }
    return name;
}

} // namespace

class DescEquivalence : public ::testing::TestWithParam<EquivalenceParam>
{
  protected:
    DescEquivalence() : link(config()), kernel(config()), ref(config()) {}

    static DescConfig
    config()
    {
        auto [wires, chunk_bits, skip] = GetParam();
        DescConfig c;
        c.bus_wires = wires;
        c.chunk_bits = chunk_bits;
        c.block_bits = kBlockBits;
        c.skip = skip;
        return c;
    }

    /** One block through the link, the kernel and the oracle. */
    void
    step(const BitVec &block, int block_no)
    {
        expectSchemesMatchLink({&kernel, &ref}, link, block, block_no);
    }

    /**
     * @p per_dist blocks of each of kDists, in turn, through one
     * long-lived link/kernel/oracle triple, so skip state carries
     * across the distribution changes.
     */
    void
    streamDists(Rng &rng, int per_dist)
    {
        expectStreamMatchesLink({&kernel, &ref}, link, config().chunk_bits,
                                rng, per_dist);
    }

    DescLink link;
    DescScheme kernel;
    oracle::DescScalar ref;
};

TEST_P(DescEquivalence, BehavioralMatchesCycleAccurate)
{
    const DescConfig cfg = config();
    Rng rng(0xec0de + cfg.bus_wires * 31 + cfg.chunk_bits);
    BitVec prev(kBlockBits);
    for (int i = 0; i < 40; i++) {
        BitVec block = biasedBlock(rng, prev, cfg.chunk_bits, 0.3, 0.2);
        prev = block;
        ASSERT_NO_FATAL_FAILURE(step(block, i));
    }
}

TEST_P(DescEquivalence, RandomizedDifferential)
{
    const DescConfig cfg = config();
    Rng rng(0xd1ff + cfg.bus_wires * 131 + cfg.chunk_bits * 7
            + unsigned(cfg.skip));
    streamDists(rng, 25);
}

TEST_P(DescEquivalence, AllZeroAndAllOnesBlocks)
{
    BitVec zeros(kBlockBits);
    BitVec ones(kBlockBits);
    ones.invertRange(0, kBlockBits);

    int n = 0;
    for (const BitVec &block : {zeros, ones, zeros, zeros, ones})
        ASSERT_NO_FATAL_FAILURE(step(block, n++));
}

TEST_P(DescEquivalence, AdaptiveCountersSurviveLongStreams)
{
    // The skip value is history: transmitter and receiver counters and
    // last-value tables must track each other, and the fast model and
    // its scalar oracle must track the ticked link, across a long run
    // of consecutive blocks, because one divergent count eventually
    // flips a best-value decision and corrupts every later transfer.
    // 240 blocks over four distributions run well past the adaptive
    // counters' saturation horizon, and each change of distribution
    // makes the trackers decay and re-learn different frequent values.
    // The other skip modes run the same stream.
    const DescConfig cfg = config();
    Rng rng(0xadab + cfg.bus_wires * 3 + cfg.chunk_bits);
    streamDists(rng, 60);
}

TEST_P(DescEquivalence, DataFlipsNeverExceedChunkCount)
{
    DescConfig cfg = config();
    Rng rng(77);
    BitVec prev(kBlockBits);
    for (int i = 0; i < 50; i++) {
        BitVec block = biasedBlock(rng, prev, cfg.chunk_bits, 0.1, 0.1);
        prev = block;
        auto r = kernel.transfer(block);
        EXPECT_LE(r.data_flips, cfg.numChunks());
        EXPECT_EQ(r.data_flips + r.skipped, cfg.numChunks());
    }
}

TEST_P(DescEquivalence, WindowBoundedByWorstCase)
{
    DescConfig cfg = config();
    Rng rng(78);
    // Worst case per wave is the largest pulse delay; basic mode
    // additionally streams numWaves chunks per wire back to back.
    const Cycle max_delay = (Cycle{1} << cfg.chunk_bits);
    const Cycle bound = 1 + cfg.numWaves() * max_delay;
    BitVec prev(kBlockBits);
    for (int i = 0; i < 50; i++) {
        BitVec block = biasedBlock(rng, prev, cfg.chunk_bits, 0.3, 0.3);
        prev = block;
        EXPECT_LE(kernel.transfer(block).cycles, bound);
    }
}

/** The same fixture and configs, for the kernel's lanes and reset(). */
class LinkFastPath : public DescEquivalence
{
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
    streamDists(rng, 25);
}

TEST_P(LinkFastPath, ExtremeBlocks)
{
    // Chunks alternating between zero and the longest pulse, and the
    // complement: every wave mixes chunks a zero skip drops with
    // chunks that hold their wire for the whole window.
    const DescConfig cfg = config();
    BitVec even(kBlockBits);
    BitVec odd(kBlockBits);
    for (unsigned pos = 0, i = 0; pos < kBlockBits;
         pos += cfg.chunk_bits, i++) {
        even.setField(pos, cfg.chunk_bits, i % 2 ? 0 : cfg.maxValue());
        odd.setField(pos, cfg.chunk_bits, i % 2 ? cfg.maxValue() : 0);
    }

    int n = 0;
    for (const BitVec &block : {even, odd, odd, even, even})
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

const auto kConfigSpace = ::testing::Combine(
    ::testing::Values(16u, 32u, 64u, 128u, 256u),
    ::testing::Values(1u, 2u, 4u, 8u),
    ::testing::Values(SkipMode::None, SkipMode::Zero, SkipMode::LastValue,
                      SkipMode::Adaptive));

INSTANTIATE_TEST_SUITE_P(ConfigSpace, DescEquivalence, kConfigSpace,
                         equivalenceParamName);
INSTANTIATE_TEST_SUITE_P(ConfigSpace, LinkFastPath, kConfigSpace,
                         equivalenceParamName);

TEST(TickedFastDrift, NoDriftOver240AdaptiveBlocks)
{
    // The long adaptive stream once more, on its own seed, with the
    // 64-wire 4-bit-chunk link and the kernel alone.
    DescConfig cfg;
    cfg.bus_wires = 64;
    cfg.chunk_bits = 4;
    cfg.block_bits = kBlockBits;
    cfg.skip = SkipMode::Adaptive;

    DescLink link(cfg);
    DescScheme scheme(cfg);
    Rng rng(0xd21f7);
    expectStreamMatchesLink({&scheme}, link, cfg.chunk_bits, rng, 60);
}

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
