/**
 * @file
 * Integration tests for the memory hierarchy: hit/miss timing,
 * transfer accounting, MSHR merging, warmup, and ECC wiring.
 */

#include <gtest/gtest.h>

#include <unordered_map>

#include "cache/hierarchy.hh"

using namespace desc;
using namespace desc::cache;

namespace {

/** Deterministic pattern-backed memory for tests. */
class PatternStore : public BackingStore
{
  public:
    const Block512 &
    fetch(Addr addr) override
    {
        auto it = _mem.find(addr);
        if (it == _mem.end()) {
            Block512 b{};
            for (unsigned w = 0; w < 8; w++)
                b[w] = addr * 31 + w;
            it = _mem.emplace(addr, b).first;
        }
        return it->second;
    }

    void
    store(Addr addr, const Block512 &data) override
    {
        _mem[addr] = data;
        stores++;
    }

    unsigned stores = 0;

  private:
    std::unordered_map<Addr, Block512> _mem;
};

struct Fixture
{
    sim::EventQueue eq;
    PatternStore backing;
    L2Config cfg;
    std::unique_ptr<MemHierarchy> mem;

    explicit Fixture(L2Config c = L2Config{}, unsigned cores = 2)
        : cfg(c)
    {
        mem = std::make_unique<MemHierarchy>(eq, cfg, backing, cores);
    }

    Cycle done_at = 0;

    /** Callback stamping the fixture's completion time. */
    DoneCb
    stampDone()
    {
        return {[](void *c, unsigned) {
                    auto *f = static_cast<Fixture *>(c);
                    f->done_at = f->eq.now();
                },
                this, 0};
    }

    /** Blocking read; returns the completion latency in cycles. */
    Cycle
    read(unsigned core, Addr addr)
    {
        Cycle start = eq.now();
        done_at = 0;
        auto lat = mem->access(core, addr, false, 0, false, stampDone());
        if (lat)
            return *lat;
        eq.run();
        return done_at - start;
    }

    Cycle
    write(unsigned core, Addr addr, std::uint64_t value)
    {
        Cycle start = eq.now();
        done_at = 0;
        auto lat = mem->access(core, addr, true, value, false,
                               stampDone());
        if (lat)
            return *lat;
        eq.run();
        return done_at - start;
    }
};

/** Callback bumping an unsigned counter. */
DoneCb
countDone(unsigned *counter)
{
    return {[](void *c, unsigned) { ++*static_cast<unsigned *>(c); },
            counter, 0};
}

} // namespace

TEST(Hierarchy, L1HitIsSynchronousAndFast)
{
    Fixture f;
    f.read(0, 0x1000);            // miss, fills L1
    EXPECT_EQ(f.read(0, 0x1000), 2u); // now an L1 hit
    EXPECT_EQ(f.mem->stats().l1d_accesses.value(), 2u);
    EXPECT_EQ(f.mem->stats().l1d_misses.value(), 1u);
}

TEST(Hierarchy, L2HitFasterThanMiss)
{
    Fixture f;
    Cycle miss = f.read(0, 0x2000);
    // Same block from the other core: L2 hit (L1 of core 1 is cold).
    Cycle hit = f.read(1, 0x2000);
    EXPECT_LT(hit, miss);
    EXPECT_EQ(f.mem->stats().l2_hits.value(), 1u);
    EXPECT_EQ(f.mem->stats().l2_misses.value(), 1u);
}

TEST(Hierarchy, HitLatencyNearTable1)
{
    // Table 1: hit delay ~19 cycles with the 64-bit bus.
    Fixture f;
    f.read(0, 0x3000);
    Cycle hit = f.read(1, 0x3000);
    EXPECT_GE(hit, 12u);
    EXPECT_LE(hit, 30u);
}

TEST(Hierarchy, TransfersAreCountedAndFlipsAccumulate)
{
    Fixture f;
    f.read(0, 0x4000);
    const auto &s = f.mem->stats();
    // A miss fills the bank (write transfer); no read transfer yet.
    EXPECT_EQ(s.write_transfers.value(), 1u);
    f.read(1, 0x4000); // L2 hit: read transfer out of the bank
    EXPECT_EQ(s.read_transfers.value(), 1u);
    EXPECT_GT(s.data_flips, 0.0);
}

TEST(Hierarchy, PrefillMakesAccessesHit)
{
    Fixture f;
    f.mem->prefill(0x5000);
    f.read(0, 0x5000);
    EXPECT_EQ(f.mem->stats().l2_hits.value(), 1u);
    EXPECT_EQ(f.mem->stats().l2_misses.value(), 0u);
}

TEST(Hierarchy, MshrMergesConcurrentMisses)
{
    Fixture f;
    unsigned done = 0;
    f.mem->access(0, 0x6000, false, 0, false, countDone(&done));
    f.mem->access(1, 0x6000, false, 0, false, countDone(&done));
    f.eq.run();
    EXPECT_EQ(done, 2u);
    // One miss, one DRAM fetch, one fill; the second request merged.
    EXPECT_EQ(f.mem->stats().l2_misses.value(), 1u);
    EXPECT_EQ(f.mem->stats().l2_fills.value(), 1u);
}

TEST(Hierarchy, DirtyEvictionWritesBack)
{
    L2Config cfg;
    cfg.org.capacity_bytes = 64 * 1024; // tiny L2: 64 sets of 16
    Fixture f(cfg);
    // Dirty one block, then stream enough blocks through its set to
    // evict it.
    f.write(0, 0x10000, 0xdead);
    // Evict from L1 first so the L2 line is not sharer-protected:
    // stream through L1's set too.
    for (unsigned i = 1; i <= 40; i++)
        f.read(0, 0x10000 + Addr(i) * 64 * 1024);
    EXPECT_GT(f.backing.stores, 0u);
    // The dirty data must round-trip through memory.
    f.read(1, 0x10000);
    auto &blk = f.backing.fetch(0x10000);
    EXPECT_EQ(blk[0], 0xdeadull);
}

TEST(Hierarchy, RecalledDataReachesMemory)
{
    // The only copy of a Modified L1 line's data moves into the L2
    // payload on a coherence recall; a later dirty eviction must then
    // carry it to memory.
    L2Config cfg;
    cfg.org.capacity_bytes = 64 * 1024; // tiny L2: 64 sets of 16
    Fixture f(cfg);
    const Addr a = 0x10000;
    f.write(0, a, 0xbeef);
    // Core 1's shared read recalls the block from core 0's L1, which
    // keeps a clean Shared copy: no L1 writeback will follow.
    f.read(1, a);
    EXPECT_EQ(f.mem->stats().recalls.value(), 1u);
    // Both cores stream through the shared L1/L2 set until the line
    // leaves the L1s and then the L2.
    for (unsigned i = 1; i <= 40; i++) {
        f.read(0, a + Addr(i) * 64 * 1024);
        f.read(1, a + Addr(i) * 64 * 1024);
    }
    EXPECT_EQ(f.mem->stats().l2_writebacks_in.value(), 0u);
    EXPECT_EQ(f.mem->stats().l2_evictions_out.value(), 1u);
    EXPECT_EQ(f.backing.fetch(a)[0], 0xbeefull);
}

TEST(Hierarchy, InvalidatingRecallKeepsOwnerData)
{
    // An exclusive request recalls the owner's Modified data into the
    // L2 payload before the requester's L1 fills from it.
    L2Config cfg;
    cfg.org.capacity_bytes = 64 * 1024;
    Fixture f(cfg);
    const Addr a = 0x10000;
    f.write(0, a, 0xbeef);
    f.write(1, a + 8, 0xf00d);
    EXPECT_EQ(f.mem->stats().recalls.value(), 1u);
    for (unsigned i = 1; i <= 40; i++) {
        f.read(0, a + Addr(i) * 64 * 1024);
        f.read(1, a + Addr(i) * 64 * 1024);
    }
    const Block512 &blk = f.backing.fetch(a);
    EXPECT_EQ(blk[0], 0xbeefull);
    EXPECT_EQ(blk[1], 0xf00dull);
}

TEST(Hierarchy, PrefillStoresDirtyVictim)
{
    // A dirty L2 line that the prefill walk evicts must reach memory
    // with the data the L1 wrote back.
    L2Config cfg;
    cfg.org.capacity_bytes = 64 * 1024; // tiny L2: 64 sets of 16
    Fixture f(cfg);
    const Addr a = 0x10000;
    f.write(0, a, 0xdead);
    // Four more blocks in the 4-way L1 set write the line back into
    // the L2 (now dirty, no sharers) without evicting it there.
    for (unsigned i = 1; i <= 4; i++)
        f.read(0, a + Addr(i) * 64 * 1024);
    EXPECT_EQ(f.mem->stats().l2_writebacks_in.value(), 1u);
    EXPECT_EQ(f.backing.stores, 0u);
    for (unsigned i = 5; i <= 24; i++)
        f.mem->prefill(a + Addr(i) * 64 * 1024);
    EXPECT_EQ(f.backing.stores, 1u);
    const Block512 &blk = f.backing.fetch(a);
    EXPECT_EQ(blk[0], 0xdeadull);
    EXPECT_EQ(blk[1], a * 31 + 1); // untouched words keep memory's
}

TEST(Hierarchy, DescSchemeLengthensHitLatency)
{
    L2Config binary;
    Fixture fb(binary);
    fb.read(0, 0x7000);
    Cycle bin_hit = fb.read(1, 0x7000);

    L2Config desc_cfg;
    desc_cfg.scheme = encoding::SchemeKind::DescZeroSkip;
    desc_cfg.scheme_cfg.bus_wires = 128;
    desc_cfg.org.bus_wires = 128;
    Fixture fd(desc_cfg);
    fd.read(0, 0x7000);
    Cycle desc_hit = fd.read(1, 0x7000);

    EXPECT_GT(desc_hit, bin_hit);
}

TEST(Hierarchy, EccWidensTheBus)
{
    L2Config cfg;
    cfg.scheme_cfg.bus_wires = 128;
    cfg.ecc = true;
    cfg.ecc_segment_bits = 128;
    auto eff = cfg.effectiveSchemeConfig();
    EXPECT_EQ(eff.block_bits, 548u);
    EXPECT_EQ(eff.bus_wires, 137u); // 4 beats of 137 wires

    // The (72,64) code on the default 64-wire bus: 8 beats of 72.
    L2Config cfg64;
    cfg64.ecc = true;
    cfg64.ecc_segment_bits = 64;
    auto eff64 = cfg64.effectiveSchemeConfig();
    EXPECT_EQ(eff64.block_bits, 576u);
    EXPECT_EQ(eff64.bus_wires, 72u);

    L2Config desc_cfg;
    desc_cfg.scheme = encoding::SchemeKind::DescZeroSkip;
    desc_cfg.scheme_cfg.bus_wires = 128;
    desc_cfg.ecc = true;
    desc_cfg.ecc_segment_bits = 128;
    auto eff2 = desc_cfg.effectiveSchemeConfig();
    EXPECT_EQ(eff2.block_bits, 548u);
    EXPECT_EQ(eff2.bus_wires, 137u); // nine parity chunk wires
}

TEST(Hierarchy, EccHierarchyRunsEndToEnd)
{
    L2Config cfg;
    cfg.ecc = true;
    cfg.ecc_segment_bits = 64;
    Fixture f(cfg);
    f.read(0, 0x8000);
    Cycle hit = f.read(1, 0x8000);
    EXPECT_GT(hit, 0u);
    EXPECT_GT(f.mem->stats().data_flips, 0.0);
}

TEST(Hierarchy, SnucaBankLatencyGrowsWithDistance)
{
    L2Config cfg;
    cfg.snuca = true;
    cfg.org.banks = 128;
    cfg.org.bus_wires = 128;
    cfg.scheme_cfg.bus_wires = 128;
    Fixture f(cfg);
    // Bank 0 (near) vs bank 127 (far): block index selects the bank.
    f.read(0, 0 * 64);
    f.read(0, 127 * 64);
    Cycle near = f.read(1, 0 * 64);
    Cycle far = f.read(1, 127 * 64);
    EXPECT_LT(near, far);
}

TEST(Hierarchy, UpgradeOnSharedStoreInvalidatesPeers)
{
    Fixture f;
    f.read(0, 0x9000);
    f.read(1, 0x9000); // both cores share the line
    // Core 0 stores: upgrade, core 1's copy must invalidate.
    f.write(0, 0x9000, 77);
    EXPECT_GE(f.mem->stats().upgrades.value(), 1u);
    // Core 1 reads again: must go back to the L2 (L1 miss).
    auto before = f.mem->stats().l1d_misses.value();
    f.read(1, 0x9000);
    EXPECT_EQ(f.mem->stats().l1d_misses.value(), before + 1);
}
