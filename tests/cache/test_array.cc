/**
 * @file
 * Unit tests for the generic set-associative array, and the line-size
 * contract of the hierarchy built on it.
 */

#include <gtest/gtest.h>

#include "cache/array.hh"
#include "cache/hierarchy.hh"

using namespace desc;
using namespace desc::cache;

namespace {

struct Meta
{
    int tagval = 0;
    bool pinned = false;
};

using Array = SetAssocArray<Meta>;

} // namespace

TEST(SetAssocArray, GeometryDerivation)
{
    Array a(16 * 1024, 4, 64);
    EXPECT_EQ(a.numSets(), 64u);
    EXPECT_EQ(a.assoc(), 4u);
}

TEST(SetAssocArray, LookupMissesOnEmpty)
{
    Array a(16 * 1024, 4, 64);
    EXPECT_EQ(a.lookup(0x1000), Array::kNoWay);
}

TEST(SetAssocArray, FillThenHit)
{
    Array a(16 * 1024, 4, 64);
    auto v = a.victim(0x1000);
    a.fill(v, 0x1000);
    auto way = a.lookup(0x1000);
    ASSERT_NE(way, Array::kNoWay);
    EXPECT_EQ(a.addrOf(way), 0x1000u);
    // Offsets within the block hit the same line.
    EXPECT_EQ(a.lookup(0x1008), way);
}

TEST(SetAssocArray, DistinctTagsSameSet)
{
    Array a(16 * 1024, 4, 64);
    // 64 sets * 64B = 4KB stride aliases to the same set.
    Addr a1 = 0x1000, a2 = 0x1000 + 4096;
    a.fill(a.victim(a1), a1);
    a.fill(a.victim(a2), a2);
    EXPECT_NE(a.lookup(a1), Array::kNoWay);
    EXPECT_NE(a.lookup(a2), Array::kNoWay);
    EXPECT_NE(a.lookup(a1), a.lookup(a2));
}

TEST(SetAssocArray, LruEviction)
{
    Array a(16 * 1024, 4, 64);
    // Fill all four ways of one set, touching in order.
    for (unsigned i = 0; i < 4; i++) {
        Addr addr = 0x1000 + Addr(i) * 4096;
        a.fill(a.victim(addr), addr);
    }
    // Touch way 0 so way 1 becomes LRU.
    a.touch(a.lookup(0x1000));
    Addr newcomer = 0x1000 + 4 * 4096;
    auto v = a.victim(newcomer);
    EXPECT_EQ(a.addrOf(v), 0x1000u + 4096u);
}

TEST(SetAssocArray, InvalidWayPreferredOverEviction)
{
    Array a(16 * 1024, 4, 64);
    a.fill(a.victim(0x1000), 0x1000);
    auto v = a.victim(0x1000 + 4096);
    EXPECT_FALSE(a.valid(v));
}

TEST(SetAssocArray, VictimPreferringAvoidsPinnedLines)
{
    Array a(16 * 1024, 4, 64);
    for (unsigned i = 0; i < 4; i++) {
        Addr addr = 0x1000 + Addr(i) * 4096;
        auto way = a.victim(addr);
        a.fill(way, addr);
        a.meta(way).pinned = i != 2; // only way 2 is unpinned
    }
    auto v = a.victimPreferring(
        0x1000 + 5 * 4096, [](const Meta &m) { return m.pinned; });
    EXPECT_EQ(a.addrOf(v), 0x1000u + 2 * 4096u);
}

TEST(SetAssocArray, VictimPreferringFallsBackToLru)
{
    Array a(16 * 1024, 4, 64);
    for (unsigned i = 0; i < 4; i++) {
        Addr addr = 0x1000 + Addr(i) * 4096;
        auto way = a.victim(addr);
        a.fill(way, addr);
        a.meta(way).pinned = true;
    }
    auto v = a.victimPreferring(0x1000,
                                [](const Meta &m) { return m.pinned; });
    // Everything pinned: plain LRU (way 0, the oldest fill).
    EXPECT_EQ(a.addrOf(v), 0x1000u);
}

TEST(SetAssocArray, InvalidateFreesTheLine)
{
    Array a(16 * 1024, 4, 64);
    a.fill(a.victim(0x2000), 0x2000);
    a.invalidate(a.lookup(0x2000));
    EXPECT_EQ(a.lookup(0x2000), Array::kNoWay);
}

TEST(SetAssocArray, AddrOfRoundTrips)
{
    // Shift-based set/tag/address math must reconstruct every block
    // address, up to the 2^44-scale region bases of the workloads.
    for (unsigned block : {32u, 64u, 128u}) {
        for (unsigned assoc : {1u, 4u, 16u}) {
            Array a(std::uint64_t(64) * assoc * block, assoc, block);
            for (Addr addr : {Addr{0}, Addr{0x1234}, Addr{0xfffff},
                              (Addr{1} << 36) + 4099 * 64 + 17,
                              (Addr{1} << 44) - 1, Addr{1} << 44}) {
                auto way = a.victim(addr);
                a.fill(way, addr);
                auto hit = a.lookup(addr);
                ASSERT_EQ(hit, way) << "block " << block << " assoc "
                                    << assoc << " addr " << addr;
                EXPECT_EQ(a.addrOf(hit), addr & ~Addr(block - 1))
                    << "block " << block << " assoc " << assoc
                    << " addr " << addr;
            }
        }
    }
}

TEST(SetAssocArrayDeath, RejectsNonPowerOfTwoBlock)
{
    // 48-byte blocks: capacity divides evenly into 64 sets, so only
    // the block-size check can fire.
    EXPECT_DEATH(Array(64 * 4 * 48, 4, 48), "power of two");
}

namespace {

/** Backing store for hierarchies that must fail to construct. */
class NullStore : public BackingStore
{
  public:
    const Block512 &fetch(Addr) override { return _block; }
    void store(Addr, const Block512 &) override {}

  private:
    Block512 _block{};
};

} // namespace

TEST(MemHierarchyDeath, RejectsBlocksOtherThan64Bytes)
{
    // Payloads (Block512), bank interleaving (addr >> 6) and block
    // addresses (addr & ~63) are fixed to 64-byte lines; any other
    // L1 or L2 line size, or transfer width, must not build.
    sim::EventQueue eq;
    NullStore store;
    L2Config l2;
    l2.org.block_bytes = 128;
    EXPECT_DEATH(MemHierarchy(eq, l2, store, 1), "blocks must be 64 bytes");
    L1Config l1;
    l1.block_bytes = 32;
    EXPECT_DEATH(MemHierarchy(eq, L2Config{}, store, 1, l1),
                 "blocks must be 64 bytes");
    L2Config narrow;
    narrow.scheme_cfg.block_bits = 256;
    EXPECT_DEATH(MemHierarchy(eq, narrow, store, 1),
                 "blocks must be 64 bytes");
}
