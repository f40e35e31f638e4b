/**
 * @file
 * Unit tests for chunking, wire assignment, and chunk statistics, and
 * the differential suite of ChunkStats against its scalar oracle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "core/chunk.hh"
#include "oracle/oracle.hh"

using namespace desc;
using namespace desc::core;

TEST(Chunk, SplitJoinRoundTrip)
{
    Rng rng(1);
    for (unsigned bits : {1u, 2u, 4u, 8u}) {
        BitVec block(kBlockBits);
        block.randomize(rng);
        auto chunks = splitChunks(block, bits);
        EXPECT_EQ(chunks.size(), kBlockBits / bits);
        EXPECT_EQ(joinChunks(chunks, bits, kBlockBits), block);
    }
}

TEST(Chunk, SplitExtractsCorrectValues)
{
    BitVec block(16, 0x4321);
    auto chunks = splitChunks(block, 4);
    ASSERT_EQ(chunks.size(), 4u);
    EXPECT_EQ(chunks[0], 0x1);
    EXPECT_EQ(chunks[1], 0x2);
    EXPECT_EQ(chunks[2], 0x3);
    EXPECT_EQ(chunks[3], 0x4);
}

TEST(Chunk, WireAssignmentMatchesFigure4)
{
    // 128 chunks on 64 wires: chunk 0 and chunk 64 share wire 0
    // (slots 0 and 1), chunk 1 and 65 share wire 1, etc.
    EXPECT_EQ(chunkWire(0, 64), 0u);
    EXPECT_EQ(chunkWire(64, 64), 0u);
    EXPECT_EQ(chunkSlot(0, 64), 0u);
    EXPECT_EQ(chunkSlot(64, 64), 1u);
    EXPECT_EQ(chunkWire(65, 64), 1u);
    EXPECT_EQ(chunkSlot(127, 64), 1u);
}

TEST(ChunkStats, ZeroFractionOfZeroBlockIsOne)
{
    ChunkStats stats(4, 128);
    stats.observe(BitVec(kBlockBits));
    EXPECT_DOUBLE_EQ(stats.zeroFraction(), 1.0);
    EXPECT_EQ(stats.totalChunks(), 128u);
}

TEST(ChunkStats, ValueFractions)
{
    ChunkStats stats(4, 4);
    BitVec block(16);
    block.setField(0, 4, 5);
    block.setField(4, 4, 5);
    block.setField(8, 4, 7);
    stats.observe(block);
    EXPECT_DOUBLE_EQ(stats.valueFraction(5), 0.5);
    EXPECT_DOUBLE_EQ(stats.valueFraction(7), 0.25);
    EXPECT_DOUBLE_EQ(stats.zeroFraction(), 0.25);
}

TEST(ChunkStats, LastValueMatchesAcrossBlocksOnSameWire)
{
    ChunkStats stats(4, 4);
    BitVec a(16, 0x1234);
    stats.observe(a);
    // First block has no predecessors: no candidates yet with one
    // chunk per wire.
    EXPECT_DOUBLE_EQ(stats.lastValueMatchFraction(), 0.0);
    stats.observe(a); // identical block: all four wires match
    EXPECT_DOUBLE_EQ(stats.lastValueMatchFraction(), 1.0);
    BitVec b(16, 0x1230); // chunk 0 differs (4 -> 0), rest match
    stats.observe(b);
    EXPECT_NEAR(stats.lastValueMatchFraction(), 7.0 / 8.0, 1e-12);
}

TEST(ChunkStats, IntraBlockMatchesCountedPerWire)
{
    // One wire, two chunks per block: consecutive chunks on the same
    // wire are candidates even within a block.
    ChunkStats stats(4, 1);
    BitVec block(8, 0x55); // chunks 5, 5
    stats.observe(block);
    EXPECT_DOUBLE_EQ(stats.lastValueMatchFraction(), 1.0);
}

TEST(ChunkStatsDeath, RejectsLayoutsWithoutAWordPass)
{
    EXPECT_DEATH(ChunkStats(3, 4).observe(BitVec(12)), "1, 2, 4 or 8-bit");
    EXPECT_DEATH(ChunkStats(4, 0).observe(BitVec(16)), ">= 1 wire");
}

namespace {

/** Zero-rich block: whole zero words and sparse small values. */
BitVec
zeroRichBlock(Rng &rng, unsigned bits)
{
    BitVec b(bits);
    for (unsigned pos = 0; pos < bits; pos += 64) {
        std::uint64_t w = 0;
        if (rng.chance(0.5))
            w = rng.next() & rng.next() & rng.next();
        b.setField(pos, std::min(64u, bits - pos), w);
    }
    return b;
}

/** Value-local block: @p prev resized to @p bits with a few flips. */
BitVec
valueLocalBlock(Rng &rng, const BitVec &prev, unsigned bits)
{
    BitVec b(bits);
    for (unsigned pos = 0; pos < bits && pos < prev.width(); pos += 64) {
        const unsigned len = std::min({64u, bits - pos, prev.width() - pos});
        b.setField(pos, len, prev.field(pos, len));
    }
    for (unsigned n = unsigned(rng.below(4)); n > 0; n--)
        b.flipBit(unsigned(rng.below(bits)));
    return b;
}

/** Stream @p widths' blocks through the kernel and the oracle. */
void
expectStatsMatchOracle(unsigned chunk_bits, unsigned wires,
                       const std::vector<unsigned> &widths, Rng &rng)
{
    ChunkStats stats(chunk_bits, wires);
    oracle::ChunkStatsScalar ref(chunk_bits, wires);
    BitVec block;
    for (int i = 0; i < 120; i++) {
        const unsigned bits = widths[std::size_t(i) % widths.size()];
        block = (i / 20) % 2 == 0 || block.empty()
            ? zeroRichBlock(rng, bits)
            : valueLocalBlock(rng, block, bits);
        stats.observe(block);
        ref.observe(block);
        ASSERT_EQ(stats.matches(), ref.matches()) << "block " << i;
        ASSERT_EQ(stats.matchCandidates(), ref.matchCandidates())
            << "block " << i;
        ASSERT_EQ(stats.totalChunks(), ref.histogram().total())
            << "block " << i;
        for (unsigned v = 0; v < (1u << chunk_bits); v++) {
            ASSERT_EQ(stats.histogram().bin(v), ref.histogram().bin(v))
                << "value " << v << ", block " << i;
        }
    }
}

} // namespace

/** (chunk bits, wires) */
class ChunkStatsEquivalence
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(ChunkStatsEquivalence, MatchesOracleBlockByBlock)
{
    // 512-bit blocks: one or more whole waves, or a partial one where
    // the bus has more wires than the block has chunks (8-bit chunks
    // on 128 wires).
    auto [chunk_bits, wires] = GetParam();
    Rng rng(0xc4 + chunk_bits * 131 + wires);
    ASSERT_NO_FATAL_FAILURE(
        expectStatsMatchOracle(chunk_bits, wires, {kBlockBits}, rng));
}

TEST_P(ChunkStatsEquivalence, MixedBlockWidthsMatchOracle)
{
    // Blocks of different widths on one stream, narrow ones first,
    // leave some wires with a chunk and some without, and waves that
    // end mid-word.
    auto [chunk_bits, wires] = GetParam();
    Rng rng(0x3d + chunk_bits * 17 + wires);
    const unsigned c = chunk_bits;
    ASSERT_NO_FATAL_FAILURE(expectStatsMatchOracle(
        c, wires, {3 * c, 64, kBlockBits, 24 * c, 576, 200 * c}, rng));
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, ChunkStatsEquivalence,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(1u, 4u, 32u, 128u)),
    [](const ::testing::TestParamInfo<std::tuple<unsigned, unsigned>> &i) {
        return "c" + std::to_string(std::get<0>(i.param)) + "_w"
            + std::to_string(std::get<1>(i.param));
    });
