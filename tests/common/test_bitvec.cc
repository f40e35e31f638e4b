/**
 * @file
 * Unit tests for the BitVec bit-accurate storage primitive and the
 * SWAR popcount it counts with.
 */

#include <gtest/gtest.h>

#include "common/bitvec.hh"
#include "common/rng.hh"
#include "common/swar.hh"

using desc::BitVec;
using desc::Rng;
namespace swar = desc::swar;

TEST(BitVec, ConstructsAllZero)
{
    BitVec v(512);
    EXPECT_EQ(v.width(), 512u);
    EXPECT_TRUE(v.allZero());
    EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVec, ConstructsFromValue)
{
    BitVec v(16, 0xabcd);
    EXPECT_EQ(v.field(0, 16), 0xabcdu);
    EXPECT_EQ(v.field(4, 8), 0xbcu);
}

TEST(BitVec, ValueConstructorMasksToWidth)
{
    BitVec v(4, 0xff);
    EXPECT_EQ(v.field(0, 4), 0xfu);
    EXPECT_EQ(v.popcount(), 4u);
}

TEST(BitVec, SetAndGetSingleBits)
{
    BitVec v(130);
    v.setBit(0, true);
    v.setBit(64, true);
    v.setBit(129, true);
    EXPECT_TRUE(v.bit(0));
    EXPECT_TRUE(v.bit(64));
    EXPECT_TRUE(v.bit(129));
    EXPECT_FALSE(v.bit(1));
    EXPECT_EQ(v.popcount(), 3u);
    v.setBit(64, false);
    EXPECT_FALSE(v.bit(64));
}

TEST(BitVec, FlipBitToggles)
{
    BitVec v(8);
    v.flipBit(3);
    EXPECT_TRUE(v.bit(3));
    v.flipBit(3);
    EXPECT_FALSE(v.bit(3));
}

TEST(BitVec, FieldCrossesWordBoundary)
{
    BitVec v(128);
    v.setField(60, 16, 0x1234);
    EXPECT_EQ(v.field(60, 16), 0x1234u);
    EXPECT_EQ(v.field(0, 60), 0u ^ (std::uint64_t(0x1234) << 60
                                    & ((std::uint64_t(1) << 60) - 1)));
}

TEST(BitVec, SetFieldPreservesNeighbors)
{
    BitVec v(64, ~std::uint64_t{0});
    v.setField(8, 8, 0);
    EXPECT_EQ(v.field(0, 8), 0xffu);
    EXPECT_EQ(v.field(8, 8), 0x00u);
    EXPECT_EQ(v.field(16, 8), 0xffu);
}

TEST(BitVec, SetField64AtWordBoundary)
{
    BitVec v(256);
    v.setField(64, 64, 0xdeadbeefcafebabeull);
    EXPECT_EQ(v.field(64, 64), 0xdeadbeefcafebabeull);
    EXPECT_EQ(v.field(0, 64), 0u);
    EXPECT_EQ(v.field(128, 64), 0u);
}

TEST(BitVec, SetField64CrossingWords)
{
    BitVec v(256);
    v.setField(32, 64, 0xdeadbeefcafebabeull);
    EXPECT_EQ(v.field(32, 64), 0xdeadbeefcafebabeull);
}

TEST(BitVec, HammingDistanceCountsDifferences)
{
    BitVec a(512), b(512);
    EXPECT_EQ(a.hammingDistance(b), 0u);
    b.setBit(0, true);
    b.setBit(511, true);
    EXPECT_EQ(a.hammingDistance(b), 2u);
    a.setBit(0, true);
    EXPECT_EQ(a.hammingDistance(b), 1u);
}

TEST(BitVec, XorAssign)
{
    BitVec a(128, 0xf0f0), b(128, 0x0ff0);
    a ^= b;
    EXPECT_EQ(a.field(0, 16), 0xff00u);
}

TEST(BitVec, InvertRangeWithinWord)
{
    BitVec v(64);
    v.invertRange(4, 8);
    EXPECT_EQ(v.field(0, 16), 0x0ff0u);
    v.invertRange(4, 8);
    EXPECT_TRUE(v.allZero());
}

TEST(BitVec, InvertRangeAcrossWords)
{
    BitVec v(192);
    v.invertRange(32, 128);
    EXPECT_EQ(v.popcount(), 128u);
    EXPECT_FALSE(v.bit(31));
    EXPECT_TRUE(v.bit(32));
    EXPECT_TRUE(v.bit(159));
    EXPECT_FALSE(v.bit(160));
}

TEST(BitVec, EqualityComparesWidthAndContent)
{
    BitVec a(64, 5), b(64, 5), c(32, 5), d(64, 6);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_NE(a, d);
}

TEST(BitVec, RandomizeFillsRoughlyHalfOnes)
{
    Rng rng(42);
    BitVec v(4096);
    v.randomize(rng);
    unsigned pop = v.popcount();
    EXPECT_GT(pop, 1800u);
    EXPECT_LT(pop, 2300u);
}

TEST(BitVec, RandomizeRespectsWidthMask)
{
    Rng rng(7);
    BitVec v(70);
    for (int i = 0; i < 20; i++) {
        v.randomize(rng);
        EXPECT_LE(v.popcount(), 70u);
        // Tail bits beyond width must be zero in storage.
        EXPECT_EQ(v.words()[1] >> 6, 0u);
    }
}

TEST(BitVec, BytesRoundTrip)
{
    Rng rng(3);
    BitVec v(512);
    v.randomize(rng);
    std::uint8_t buf[64];
    v.toBytes(buf, sizeof(buf));
    BitVec w(512);
    w.fromBytes(buf, sizeof(buf));
    EXPECT_EQ(v, w);
}

TEST(BitVec, ToHexFormats)
{
    BitVec v(16, 0xbeef);
    EXPECT_EQ(v.toHex(), "beef");
    BitVec w(12, 0xabc);
    EXPECT_EQ(w.toHex(), "abc");
}

TEST(BitVec, ClearZeroes)
{
    BitVec v(128, 0xffff);
    v.clear();
    EXPECT_TRUE(v.allZero());
}

TEST(BitVecDeath, OutOfRangeBitPanics)
{
    BitVec v(8);
    EXPECT_DEATH(v.bit(8), "assertion failed");
}

TEST(BitVecDeath, OversizedFieldPanics)
{
    BitVec v(64);
    EXPECT_DEATH(v.field(60, 8), "assertion failed");
}

TEST(Swar, Popcount64MatchesBitLoop)
{
    static_assert(swar::popcount64(0) == 0);
    static_assert(swar::popcount64(~std::uint64_t{0}) == 64);
    static_assert(swar::popcount64(std::uint64_t{1} << 63) == 1);
    auto loop = [](std::uint64_t x) {
        unsigned n = 0;
        for (unsigned i = 0; i < 64; i++)
            n += (x >> i) & 1;
        return n;
    };
    Rng rng(42);
    for (unsigned i = 0; i < 10000; i++) {
        // Mix sparse, dense and uniform words.
        std::uint64_t x = rng.next();
        if (i % 3 == 1)
            x &= rng.next() & rng.next();
        else if (i % 3 == 2)
            x |= rng.next() | rng.next();
        ASSERT_EQ(swar::popcount64(x), loop(x)) << std::hex << x;
    }
}
