/**
 * @file
 * Tests for the synthetic instruction/address streams and their
 * process-wide op traces.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "workloads/stream.hh"

using namespace desc;
using namespace desc::workloads;

namespace {

struct Fixture
{
    const AppParams &app = findApp("FFT");
    ValueModel values{app, 11};
    AppStream stream{app, values, 3, 0, 11};
};

} // namespace

TEST(AppStream, GapsMatchMemoryIntensity)
{
    Fixture f;
    cpu::MemOp op;
    std::uint64_t gaps = 0;
    const unsigned n = 20000;
    for (unsigned i = 0; i < n; i++)
        gaps += f.stream.nextGap(op);
    // E[gap] = (1-p)/p for geometric gaps with success prob p.
    double p = f.app.mem_per_inst;
    double expected = (1.0 - p) / p;
    EXPECT_NEAR(double(gaps) / n, expected, expected * 0.1);
}

TEST(AppStream, WriteFractionMatches)
{
    Fixture f;
    cpu::MemOp op;
    unsigned writes = 0;
    const unsigned n = 20000;
    for (unsigned i = 0; i < n; i++) {
        f.stream.nextGap(op);
        writes += op.is_write;
    }
    EXPECT_NEAR(double(writes) / n, f.app.write_frac, 0.02);
}

TEST(AppStream, AddressesStayInTheDeclaredRegions)
{
    Fixture f;
    cpu::MemOp op;
    for (unsigned i = 0; i < 20000; i++) {
        f.stream.nextGap(op);
        bool in_hot = op.addr >= AppStream::hotBase(3)
            && op.addr < AppStream::hotBase(3) + f.app.hot_bytes;
        bool in_priv = op.addr >= AppStream::privateBase(3)
            && op.addr < AppStream::privateBase(3) + f.app.ws_private;
        bool in_shared = op.addr >= AppStream::sharedBase()
            && op.addr < AppStream::sharedBase() + f.app.ws_shared;
        EXPECT_TRUE(in_hot || in_priv || in_shared)
            << std::hex << op.addr;
        EXPECT_EQ(op.addr % 8, 0u);
    }
}

TEST(AppStream, HotSetDominates)
{
    Fixture f;
    cpu::MemOp op;
    unsigned hot = 0;
    const unsigned n = 20000;
    for (unsigned i = 0; i < n; i++) {
        f.stream.nextGap(op);
        hot += op.addr >= AppStream::hotBase(3)
            && op.addr < AppStream::hotBase(3) + f.app.hot_bytes;
    }
    EXPECT_NEAR(double(hot) / n, f.app.hot_frac, 0.02);
}

TEST(AppStream, FetchAddressesWalkTheCodeFootprint)
{
    Fixture f;
    cpu::MemOp op;
    Addr lo = ~Addr{0}, hi = 0;
    for (unsigned i = 0; i < 5000; i++) {
        f.stream.nextGap(op);
        Addr fa = f.stream.fetchAddr();
        lo = std::min(lo, fa);
        hi = std::max(hi, fa);
        EXPECT_GE(fa, AppStream::codeBase(0));
        EXPECT_LT(fa, AppStream::codeBase(0) + f.app.code_bytes);
    }
    // The walk covers most of the footprint.
    EXPECT_GT(hi - lo, f.app.code_bytes / 2);
}

TEST(AppStream, DistinctThreadsUseDistinctPrivateRegions)
{
    EXPECT_NE(AppStream::privateBase(0), AppStream::privateBase(1));
    EXPECT_NE(AppStream::hotBase(0), AppStream::hotBase(1));
    // Regions are far enough apart not to overlap.
    EXPECT_GT(AppStream::privateBase(1) - AppStream::privateBase(0),
              Addr{64} << 20);
}

TEST(AppStream, DeterministicForSameSeed)
{
    Fixture a, b;
    cpu::MemOp oa, ob;
    for (unsigned i = 0; i < 1000; i++) {
        unsigned ga = a.stream.nextGap(oa);
        unsigned gb = b.stream.nextGap(ob);
        ASSERT_EQ(ga, gb);
        ASSERT_EQ(oa.addr, ob.addr);
        ASSERT_EQ(oa.is_write, ob.is_write);
    }
}

// --- op traces ------------------------------------------------------

namespace {

/** Drops the published traces on entry and exit, at the default cap. */
struct FreshTraces
{
    explicit FreshTraces(std::size_t cap = kTraceCacheCap)
    {
        resetTraceCache(cap);
    }
    ~FreshTraces() { resetTraceCache(); }
};

struct Op
{
    unsigned gap;
    cpu::MemOp mem;
    Addr fetch;

    bool
    operator==(const Op &o) const
    {
        return gap == o.gap && mem.addr == o.mem.addr
            && mem.is_write == o.mem.is_write
            && mem.store_value == o.mem.store_value && fetch == o.fetch;
    }
};

std::vector<Op>
take(AppStream &s, unsigned n)
{
    std::vector<Op> ops(n);
    for (auto &op : ops) {
        op.gap = s.nextGap(op.mem);
        op.fetch = s.fetchAddr();
    }
    return ops;
}

/** Generate @p n ops of a stream and publish its trace. */
void
publish(const AppParams &app, unsigned tid, std::uint64_t seed, unsigned n)
{
    ValueModel values(app, seed);
    AppStream s(app, values, tid, 0, seed);
    take(s, n);
    s.publishTrace();
}

/** Ops of the trace a fresh stream with this key would replay. */
std::size_t
servedOps(const AppParams &app, unsigned tid, std::uint64_t seed)
{
    ValueModel values(app, seed);
    return AppStream(app, values, tid, 0, seed).tracedOps();
}

} // namespace

TEST(AppStreamTrace, KeyCoversEveryParamTheSeedAndTheThread)
{
    FreshTraces fresh;
    const AppParams base = findApp("FFT");
    const std::uint64_t seed = 0x7ace;
    const unsigned tid = 3;
    publish(base, tid, seed, 500);
    ASSERT_EQ(servedOps(base, tid, seed), 500u);

    // The core id only moves the code region: it shares the trace.
    {
        ValueModel values(base, seed);
        EXPECT_EQ(AppStream(base, values, tid, 5, seed).tracedOps(), 500u);
    }

    // Every field, nudged by one ulp or one unit: a different key.
    auto up = [](double &x) { x = std::nextafter(x, 1.0); };
    const std::string other_name = std::string(base.name) + "'";
    using Nudge = std::function<void(AppParams &)>;
    const std::vector<std::pair<const char *, Nudge>> nudges = {
        {"name", [&](AppParams &p) { p.name = other_name.c_str(); }},
        {"mem_per_inst", [&](AppParams &p) { up(p.mem_per_inst); }},
        {"write_frac", [&](AppParams &p) { up(p.write_frac); }},
        {"ws_private", [](AppParams &p) { p.ws_private += 64; }},
        {"ws_shared", [](AppParams &p) { p.ws_shared += 64; }},
        {"shared_frac", [&](AppParams &p) { up(p.shared_frac); }},
        {"seq_frac", [&](AppParams &p) { up(p.seq_frac); }},
        {"code_bytes", [](AppParams &p) { p.code_bytes += 64; }},
        {"hot_frac", [&](AppParams &p) { up(p.hot_frac); }},
        {"hot_bytes", [](AppParams &p) { p.hot_bytes += 64; }},
        {"zero_word", [&](AppParams &p) { up(p.zero_word); }},
        {"small_word", [&](AppParams &p) { up(p.small_word); }},
        {"palette_word", [&](AppParams &p) { up(p.palette_word); }},
        {"palette_size", [](AppParams &p) { p.palette_size++; }},
        {"null_block", [&](AppParams &p) { up(p.null_block); }},
        {"seed_salt", [](AppParams &p) { p.seed_salt++; }},
    };
    for (const auto &[field, nudge] : nudges) {
        AppParams p = base;
        nudge(p);
        EXPECT_EQ(servedOps(p, tid, seed), 0u) << field;
        // The miss is the key's doing: the nudged stream is traceable.
        publish(p, tid, seed, 100);
        EXPECT_EQ(servedOps(p, tid, seed), 100u) << field;
    }
    EXPECT_EQ(servedOps(base, tid, seed + 1), 0u);
    EXPECT_EQ(servedOps(base, tid + 1, seed), 0u);
    EXPECT_EQ(servedOps(base, tid, seed), 500u);
}

TEST(AppStreamTrace, StreamsOnAForeignValueModelNeverReplay)
{
    // Store values come from the value model; a stream whose model was
    // built from other parameters or another seed neither replays nor
    // publishes a trace keyed on its own.
    FreshTraces fresh;
    const AppParams &app = findApp("LU");
    publish(app, 0, 5, 200);
    ValueModel foreign(app, 6);
    AppStream s(app, foreign, 0, 0, 5);
    EXPECT_EQ(s.tracedOps(), 0u);
    take(s, 400);
    s.publishTrace();
    EXPECT_EQ(servedOps(app, 0, 5), 200u);
}

TEST(AppStreamTrace, ReplayThenResumeMatchesLiveGeneration)
{
    FreshTraces fresh;
    const AppParams &app = findApp("Barnes");
    const std::uint64_t seed = 0x5eed;
    ValueModel values(app, seed);

    AppStream live(app, values, 2, 1, seed);
    const auto want = take(live, 3000);

    publish(app, 2, seed, 1000);
    const std::size_t prefix_bytes = traceCacheBytes();
    EXPECT_GT(prefix_bytes, 0u);

    // Replays 1000 ops, restores the generator saved with them, and
    // generates the rest live.
    AppStream warm(app, values, 2, 1, seed);
    EXPECT_EQ(warm.tracedOps(), 1000u);
    EXPECT_EQ(take(warm, 3000), want);

    // Publishing the longer trace replaces the prefix.
    warm.publishTrace();
    EXPECT_GT(traceCacheBytes(), prefix_bytes);
    EXPECT_EQ(servedOps(app, 2, seed), 3000u);

    // A shorter trace never replaces a longer one.
    publish(app, 2, seed, 10);
    EXPECT_EQ(servedOps(app, 2, seed), 3000u);

    // Streams stay movable mid-replay (vectors of streams relocate).
    std::vector<AppStream> streams;
    streams.emplace_back(app, values, 2, 1, seed);
    auto head = take(streams[0], 1500);
    streams.emplace_back(app, values, 2, 1, seed);
    streams.emplace_back(app, values, 2, 1, seed);
    auto tail = take(streams[0], 1500);
    head.insert(head.end(), tail.begin(), tail.end());
    EXPECT_EQ(head, want);
}

TEST(AppStreamTrace, PastTheCapStreamsGenerateLive)
{
    const AppParams &app = findApp("Radix");
    const std::uint64_t seed = 77;
    ValueModel values(app, seed);
    std::vector<Op> want;
    {
        FreshTraces fresh;
        AppStream live(app, values, 0, 0, seed);
        want = take(live, 4000);
    }

    // No room at all: nothing is recorded or published.
    FreshTraces full(0);
    AppStream s(app, values, 0, 0, seed);
    EXPECT_EQ(take(s, 4000), want);
    s.publishTrace();
    EXPECT_EQ(traceCacheBytes(), 0u);
    EXPECT_EQ(servedOps(app, 0, seed), 0u);

    // Room for a short trace only: the long recording stops at the
    // cap, the short one is published, and replay stays exact.
    resetTraceCache(std::size_t{16} << 10);
    AppStream long_run(app, values, 0, 0, seed);
    take(long_run, 4000);
    long_run.publishTrace();
    EXPECT_EQ(traceCacheBytes(), 0u);
    publish(app, 0, seed, 500);
    EXPECT_GT(traceCacheBytes(), 0u);
    EXPECT_LE(traceCacheBytes(), std::size_t{16} << 10);
    AppStream warm(app, values, 0, 0, seed);
    EXPECT_EQ(warm.tracedOps(), 500u);
    EXPECT_EQ(take(warm, 4000), want);
}
