/**
 * @file
 * Tests for the interleaved block codec of Figure 9: chunk-level
 * H-tree faults under DESC must stay correctable.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "ecc/blockcodec.hh"
#include "ecc/injector.hh"

using namespace desc;
using namespace desc::ecc;

namespace {

/**
 * The Figure 9 layout spelled out bit by bit: gather each segment's
 * interleaved data bits, SECDED-encode the segment, and place parity
 * bit p of segment s at block_bits + p*S + s.
 */
BitVec
referenceEncode(const BitVec &block, unsigned segment_bits)
{
    const unsigned n = block.width();
    const unsigned segs = n / segment_bits;
    SecdedCode code(segment_bits);
    BitVec bus(n + segs * code.parityBits());
    for (unsigned g = 0; g < n; g++)
        bus.setBit(g, block.bit(g));
    for (unsigned s = 0; s < segs; s++) {
        BitVec seg(segment_bits);
        for (unsigned k = 0; k < segment_bits; k++)
            seg.setBit(k, block.bit(k * segs + s));
        const BitVec word = code.encode(seg);
        for (unsigned p = 0; p < code.parityBits(); p++)
            bus.setBit(n + p * segs + s, word.bit(segment_bits + p));
    }
    return bus;
}

} // namespace

TEST(BlockCodec, PaperGeometry)
{
    // (137,128): four 128-bit segments, nine parity bits each -> nine
    // extra 4-bit parity chunks on nine extra wires.
    BlockCodec c128(512, 128);
    EXPECT_EQ(c128.numSegments(), 4u);
    EXPECT_EQ(c128.parityBitsPerSegment(), 9u);
    EXPECT_EQ(c128.totalParityBits(), 36u);
    EXPECT_EQ(c128.busBits(), 548u);

    // (72,64): eight 64-bit segments, eight parity bits each.
    BlockCodec c64(512, 64);
    EXPECT_EQ(c64.numSegments(), 8u);
    EXPECT_EQ(c64.parityBitsPerSegment(), 8u);
    EXPECT_EQ(c64.busBits(), 576u);
}

TEST(BlockCodec, CleanRoundTrip)
{
    Rng rng(11);
    for (unsigned seg : {64u, 128u}) {
        BlockCodec codec(512, seg);
        for (int i = 0; i < 20; i++) {
            BitVec block(512);
            block.randomize(rng);
            auto d = codec.decode(codec.encode(block));
            EXPECT_EQ(d.block, block);
            EXPECT_EQ(d.corrected, 0u);
            EXPECT_EQ(d.detected_double, 0u);
        }
    }
}

TEST(BlockCodec, PayloadStaysInPlaceOnTheBus)
{
    Rng rng(12);
    BlockCodec codec(512, 128);
    BitVec block(512);
    block.randomize(rng);
    BitVec bus = codec.encode(block);
    for (unsigned i = 0; i < 512; i++)
        EXPECT_EQ(bus.bit(i), block.bit(i));
}

TEST(BlockCodec, ChunkTouchesEachSegmentAtMostOnce)
{
    // The structural guarantee behind Figure 9: with bit-interleaved
    // segments, a 4-bit chunk never holds two bits of one segment.
    for (unsigned seg : {64u, 128u}) {
        BlockCodec codec(512, seg);
        unsigned S = codec.numSegments();
        for (unsigned chunk = 0; chunk < codec.busBits() / 4; chunk++) {
            bool seen[8] = {};
            for (unsigned b = 0; b < 4; b++) {
                unsigned g = chunk * 4 + b;
                unsigned s = g < 512
                    ? g % S
                    : (g - 512) % S;
                ASSERT_LT(s, 8u);
                EXPECT_FALSE(seen[s])
                    << "chunk " << chunk << " touches segment " << s
                    << " twice";
                seen[s] = true;
            }
        }
    }
}

TEST(BlockCodec, SingleCorruptedChunkAlwaysRecovered)
{
    Rng rng(13);
    for (unsigned seg : {64u, 128u}) {
        BlockCodec codec(512, seg);
        for (int i = 0; i < 300; i++) {
            BitVec block(512);
            block.randomize(rng);
            BitVec bus = codec.encode(block);
            corruptRandomChunk(bus, 4, rng);
            auto d = codec.decode(bus);
            EXPECT_EQ(d.block, block) << "segment size " << seg;
            EXPECT_FALSE(d.uncorrectable());
        }
    }
}

TEST(BlockCodec, TwoCorruptedChunksNeverSilent)
{
    // Two chunk faults inject at most two errors per segment: either
    // corrected (if they land in different segments) or detected.
    Rng rng(14);
    BlockCodec codec(512, 128);
    for (int i = 0; i < 300; i++) {
        BitVec block(512);
        block.randomize(rng);
        BitVec bus = codec.encode(block);
        unsigned c1 = corruptRandomChunk(bus, 4, rng);
        unsigned c2;
        do {
            c2 = unsigned(rng.below(codec.busBits() / 4));
        } while (c2 == c1);
        corruptChunk(bus, c2, 4, rng);
        auto d = codec.decode(bus);
        bool silent = !d.uncorrectable() && d.block != block;
        EXPECT_FALSE(silent) << "iteration " << i;
    }
}

TEST(BlockCodec, ParityChunkFaultsAreHarmless)
{
    Rng rng(15);
    BlockCodec codec(512, 128);
    BitVec block(512);
    block.randomize(rng);
    BitVec bus = codec.encode(block);
    // Corrupt a chunk entirely inside the parity region.
    corruptChunk(bus, 512 / 4 + 2, 4, rng);
    auto d = codec.decode(bus);
    EXPECT_EQ(d.block, block);
    EXPECT_FALSE(d.uncorrectable());
}

TEST(BlockCodec, EncodeIntoMatchesPerSegmentReference)
{
    // Segment widths 8..512 (64 down to one segment) over uniform,
    // sparse, all-zero and all-ones blocks. One bus word is reused
    // throughout and starts dirty, so every call must clear the
    // previous call's parity.
    Rng rng(16);
    for (unsigned seg = 8; seg <= 512; seg *= 2) {
        BlockCodec codec(512, seg);
        BitVec bus(codec.busBits());
        bus.invertRange(0, bus.width());
        for (int i = 0; i < 40; i++) {
            BitVec block(512);
            switch (i % 4) {
              case 0:
                block.randomize(rng);
                break;
              case 1:
                for (unsigned n = 1 + unsigned(rng.below(8)); n > 0; n--)
                    block.setBit(unsigned(rng.below(512)), true);
                break;
              case 2:
                break;
              default:
                block.invertRange(0, 512);
                break;
            }
            codec.encodeInto(block, bus);
            ASSERT_EQ(bus, referenceEncode(block, seg))
                << "segment " << seg << " block " << i;
        }
    }
}

TEST(BlockCodecDeath, RejectsGeometriesWithoutWholeWordLanes)
{
    // Three segments do not tile a 64-bit word; a 96-bit block is not
    // whole words.
    EXPECT_DEATH(BlockCodec(384, 128), "segment count dividing 64");
    EXPECT_DEATH(BlockCodec(96, 32), "segment count dividing 64");
}
