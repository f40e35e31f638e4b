/**
 * @file
 * Unit tests for the on-disk experiment result cache: config hashing,
 * AppRun serialization round-trips, and miss handling for absent,
 * corrupt, and disabled caches.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <type_traits>
#include <unistd.h>
#include <vector>

#include "sim/runcache.hh"
#include "sim/runner.hh"

using namespace desc;
using namespace desc::sim;

namespace {

SystemConfig
tinyConfig(const char *app = "FFT")
{
    SystemConfig cfg = baselineConfig(workloads::findApp(app));
    cfg.cores = 2;
    cfg.threads_per_core = 2;
    cfg.insts_per_thread = 1000;
    return cfg;
}

/** A fresh private cache directory, removed on destruction. */
struct TempCacheDir
{
    std::string dir;

    TempCacheDir()
    {
        static int counter = 0;
        dir = (std::filesystem::temp_directory_path()
               / ("desc-runcache-test-" + std::to_string(getpid())
                  + "-" + std::to_string(counter++)))
                  .string();
        std::filesystem::create_directories(dir);
    }

    ~TempCacheDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }
};

void
expectSameAverage(const Average &a, const Average &b, const char *what)
{
    EXPECT_EQ(a.sum(), b.sum()) << what;
    EXPECT_EQ(a.min(), b.min()) << what;
    EXPECT_EQ(a.max(), b.max()) << what;
    EXPECT_EQ(a.count(), b.count()) << what;
}

/** Every stored field of @p a equals @p b's exactly. */
void
expectSameRun(const AppRun &a, const AppRun &b)
{
    EXPECT_EQ(a.result.cycles, b.result.cycles);
    EXPECT_EQ(a.result.instructions, b.result.instructions);
    EXPECT_EQ(a.result.seconds, b.result.seconds);

    const auto &ha = a.result.hierarchy, &hb = b.result.hierarchy;
    const std::pair<const char *, Counter cache::HierarchyStats::*>
        counters[] = {
            {"l1i_accesses", &cache::HierarchyStats::l1i_accesses},
            {"l1i_misses", &cache::HierarchyStats::l1i_misses},
            {"l1d_accesses", &cache::HierarchyStats::l1d_accesses},
            {"l1d_misses", &cache::HierarchyStats::l1d_misses},
            {"upgrades", &cache::HierarchyStats::upgrades},
            {"l2_requests", &cache::HierarchyStats::l2_requests},
            {"l2_hits", &cache::HierarchyStats::l2_hits},
            {"l2_misses", &cache::HierarchyStats::l2_misses},
            {"l2_writebacks_in", &cache::HierarchyStats::l2_writebacks_in},
            {"l2_fills", &cache::HierarchyStats::l2_fills},
            {"l2_evictions_out", &cache::HierarchyStats::l2_evictions_out},
            {"recalls", &cache::HierarchyStats::recalls},
            {"read_transfers", &cache::HierarchyStats::read_transfers},
            {"write_transfers", &cache::HierarchyStats::write_transfers},
        };
    for (const auto &[name, member] : counters)
        EXPECT_EQ((ha.*member).value(), (hb.*member).value()) << name;
    EXPECT_EQ(ha.data_flips, hb.data_flips);
    EXPECT_EQ(ha.ctrl_flips, hb.ctrl_flips);
    EXPECT_EQ(ha.bank_busy_cycles, hb.bank_busy_cycles);
    expectSameAverage(ha.hit_latency, hb.hit_latency, "hit_latency");
    expectSameAverage(ha.transfer_window, hb.transfer_window,
                      "transfer_window");

    const auto &ca = a.result.chunks, &cb = b.result.chunks;
    EXPECT_EQ(ca.chunkBits(), cb.chunkBits());
    EXPECT_EQ(ca.wires(), cb.wires());
    ASSERT_EQ(ca.histogram().numBins(), cb.histogram().numBins());
    for (unsigned i = 0; i < ca.histogram().numBins(); i++)
        EXPECT_EQ(ca.histogram().bin(i), cb.histogram().bin(i)) << i;
    EXPECT_EQ(ca.histogram().total(), cb.histogram().total());
    EXPECT_EQ(ca.histogram().overflow(), cb.histogram().overflow());
    EXPECT_EQ(ca.matches(), cb.matches());
    EXPECT_EQ(ca.matchCandidates(), cb.matchCandidates());

    EXPECT_EQ(a.result.dram_reads, b.result.dram_reads);
    EXPECT_EQ(a.result.dram_writes, b.result.dram_writes);

    EXPECT_EQ(a.l2.htree_dynamic, b.l2.htree_dynamic);
    EXPECT_EQ(a.l2.array_dynamic, b.l2.array_dynamic);
    EXPECT_EQ(a.l2.aux_dynamic, b.l2.aux_dynamic);
    EXPECT_EQ(a.l2.static_energy, b.l2.static_energy);
    EXPECT_EQ(a.processor.core_dynamic, b.processor.core_dynamic);
    EXPECT_EQ(a.processor.core_static, b.processor.core_static);
    EXPECT_EQ(a.processor.l1, b.processor.l1);
    EXPECT_EQ(a.processor.uncore, b.processor.uncore);
    EXPECT_EQ(a.processor.l2, b.processor.l2);
}

/**
 * An AppRun with a distinct value in every stored field, written out
 * by hand (not through forEachField) so it checks the field list.
 * Integers count up from 101 in run-cache order; doubles are x.5.
 */
AppRun
syntheticRun()
{
    AppRun run;
    SimResult &r = run.result;
    r.cycles = 101;
    r.instructions = 102;
    r.seconds = 103.5;
    auto &h = r.hierarchy;
    h.l1i_accesses.inc(104);
    h.l1i_misses.inc(105);
    h.l1d_accesses.inc(106);
    h.l1d_misses.inc(107);
    h.upgrades.inc(108);
    h.l2_requests.inc(109);
    h.l2_hits.inc(110);
    h.l2_misses.inc(111);
    h.l2_writebacks_in.inc(112);
    h.l2_fills.inc(113);
    h.l2_evictions_out.inc(114);
    h.recalls.inc(115);
    h.read_transfers.inc(116);
    h.write_transfers.inc(117);
    h.data_flips = 118.5;
    h.ctrl_flips = 119.5;
    h.bank_busy_cycles = 120;
    h.hit_latency.restore(121.5, 122.5, 123.5, 124);
    h.transfer_window.restore(125.5, 126.5, 127.5, 128);
    core::ChunkStats chunks(2, 3);
    Histogram hist(4);
    hist.restore({131, 132, 133, 134}, 665, 135);
    chunks.restore(std::move(hist), 136, 137);
    r.chunks = std::move(chunks);
    r.dram_reads = 138;
    r.dram_writes = 139;
    run.l2.htree_dynamic = 140.5;
    run.l2.array_dynamic = 141.5;
    run.l2.aux_dynamic = 142.5;
    run.l2.static_energy = 143.5;
    run.processor.core_dynamic = 144.5;
    run.processor.core_static = 145.5;
    run.processor.l1 = 146.5;
    run.processor.uncore = 147.5;
    run.processor.l2 = 148.5;
    return run;
}

constexpr std::uint64_t kSyntheticKey = 0x0123456789abcdefULL;

std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

std::string
entryPath(const TempCacheDir &tmp, std::uint64_t key)
{
    char name[32];
    std::snprintf(name, sizeof(name), "/%016llx.run",
                  (unsigned long long)key);
    return tmp.dir + name;
}

/** FNV-1a over @p bytes, written out here to check the cache's own. */
std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : bytes) {
        h ^= std::uint8_t(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), std::streamsize(bytes.size()));
}

/** The entry file as little-endian 64-bit words. */
std::vector<std::uint64_t>
readWords(const std::string &path)
{
    std::string bytes = readBytes(path);
    EXPECT_EQ(bytes.size() % 8, 0u);
    std::vector<std::uint64_t> words(bytes.size() / 8);
    std::memcpy(words.data(), bytes.data(), words.size() * 8);
    return words;
}

/** Write @p words as an entry file, the last word replaced by the
 *  correct checksum of the others: a well-sealed crafted entry. */
void
writeSealedWords(const std::string &path, std::vector<std::uint64_t> words)
{
    std::string bytes((words.size() - 1) * 8, '\0');
    std::memcpy(bytes.data(), words.data(), bytes.size());
    words.back() = fnv1a(bytes);
    bytes.resize(words.size() * 8);
    std::memcpy(bytes.data(), words.data(), bytes.size());
    writeBytes(path, bytes);
}

} // namespace

TEST(ConfigHash, StableForIdenticalConfigs)
{
    EXPECT_EQ(configHash(tinyConfig()), configHash(tinyConfig()));
}

TEST(ConfigHash, SensitiveToEveryResultRelevantKnob)
{
    auto base = configHash(tinyConfig());

    auto cfg = tinyConfig();
    cfg.seed ^= 1;
    EXPECT_NE(configHash(cfg), base);

    cfg = tinyConfig();
    cfg.insts_per_thread++;
    EXPECT_NE(configHash(cfg), base);

    cfg = tinyConfig();
    applyScheme(cfg, encoding::SchemeKind::DescZeroSkip);
    EXPECT_NE(configHash(cfg), base);

    cfg = tinyConfig();
    cfg.l2.scheme_cfg.chunk_bits = 2;
    EXPECT_NE(configHash(cfg), base);

    cfg = tinyConfig();
    cfg.l2.org.capacity_bytes *= 2;
    EXPECT_NE(configHash(cfg), base);

    cfg = tinyConfig();
    cfg.l2.ecc = true;
    EXPECT_NE(configHash(cfg), base);

    EXPECT_NE(configHash(tinyConfig("LU")), base);
}

TEST(ConfigHash, EveryListedFieldReachesTheKey)
{
    const SystemConfig base = tinyConfig();
    const std::uint64_t base_key = configHash(base);

    std::set<std::string> names;
    forEachField(base, [&](const char *name, const auto &) {
        EXPECT_TRUE(names.insert(name).second) << "listed twice: " << name;
    });
    EXPECT_EQ(names.size(), 59u);

    // Nudge one field at a time, by one unit (one ulp for doubles).
    const std::string other_name = std::string(base.app.name) + "'";
    auto nudge = [&](auto &v) {
        using T = std::remove_reference_t<decltype(v)>;
        if constexpr (std::is_same_v<T, double>)
            v = std::nextafter(v, HUGE_VAL);
        else if constexpr (std::is_same_v<T, bool>)
            v = !v;
        else if constexpr (std::is_enum_v<T>)
            v = T(std::underlying_type_t<T>(v) + 1);
        else if constexpr (std::is_same_v<T, const char *>)
            v = other_name.c_str();
        else
            v++;
    };
    for (std::size_t i = 0; i < names.size(); i++) {
        SystemConfig cfg = base;
        std::size_t at = 0;
        std::string nudged;
        forEachField(cfg, [&](const char *name, auto &v) {
            if (at++ == i) {
                nudge(v);
                nudged = name;
            }
        });
        EXPECT_NE(configHash(cfg), base_key) << nudged;
    }
}

TEST(ConfigHash, PinnedKeys)
{
    // Moving any of these changes every run-cache key: a deliberate,
    // reviewed diff (the format version is part of the key).
    const auto fft = baselineConfig(workloads::findApp("FFT"));
    EXPECT_EQ(configHash(fft), 0xa974996585cd9197ULL);

    auto zs = fft;
    applyScheme(zs, encoding::SchemeKind::DescZeroSkip);
    EXPECT_EQ(configHash(zs), 0xe9f83d8270f52ccdULL);

    // One Figure 28 point: the OoO core on SPEC with SECDED.
    auto ooo = baselineConfig(workloads::findApp("mcf"));
    ooo.cpu = CpuKind::OutOfOrder;
    ooo.threads_per_core = 1;
    ooo.insts_per_thread = 160'000;
    applyScheme(ooo, encoding::SchemeKind::DescZeroSkip);
    ooo.l2.ecc = true;
    ooo.l2.ecc_segment_bits = 64;
    EXPECT_EQ(configHash(ooo), 0x05ed8ccadd8fd13eULL);
}

TEST(RunCache, SyntheticRunRoundTripsFieldByField)
{
    TempCacheDir tmp;
    RunCache cache(tmp.dir);
    const AppRun run = syntheticRun();
    cache.store(kSyntheticKey, run);
    auto loaded = cache.load(kSyntheticKey);
    ASSERT_TRUE(loaded.has_value());
    expectSameRun(*loaded, run);
}

TEST(RunCache, SyntheticRunHasPinnedBytes)
{
    TempCacheDir tmp;
    RunCache(tmp.dir).store(kSyntheticKey, syntheticRun());
    const std::vector<std::uint64_t> expected = {
        0x4445534352554e31ULL, // magic "DESCRUN1"
        2,                     // format version
        kSyntheticKey,
        101, 102, bits(103.5),                // cycles .. seconds
        104, 105, 106, 107, 108,              // L1 counters, upgrades
        109, 110, 111, 112, 113, 114, 115,    // L2 counters
        116, 117, bits(118.5), bits(119.5),   // transfers, flips
        120,                                  // bank busy cycles
        bits(121.5), bits(122.5), bits(123.5), 124, // hit latency
        bits(125.5), bits(126.5), bits(127.5), 128, // transfer window
        2, 3,                                 // chunk bits, wires
        4, 131, 132, 133, 134, 665, 135,      // histogram
        136, 137,                             // matches, candidates
        138, 139,                             // DRAM reads, writes
        bits(140.5), bits(141.5), bits(142.5), bits(143.5), // L2
        bits(144.5), bits(145.5), bits(146.5), bits(147.5),
        bits(148.5),                          // processor
        0x85994b3aab6d0aa1ULL, // FNV-1a checksum of the words above
    };
    EXPECT_EQ(readWords(entryPath(tmp, kSyntheticKey)), expected);
}

TEST(RunCache, EveryFlippedByteIsAMiss)
{
    TempCacheDir tmp;
    RunCache cache(tmp.dir);
    cache.store(kSyntheticKey, syntheticRun());
    const std::string path = entryPath(tmp, kSyntheticKey);
    const std::string good = readBytes(path);
    ASSERT_TRUE(cache.load(kSyntheticKey).has_value());

    // Same length, one byte changed: the checksum catches every one,
    // including a flip inside a stored double.
    for (std::size_t i = 0; i < good.size(); i++) {
        std::string bad = good;
        bad[i] = char(bad[i] ^ 0xff);
        writeBytes(path, bad);
        EXPECT_FALSE(cache.load(kSyntheticKey).has_value()) << "byte " << i;
    }
    writeBytes(path, good);
    EXPECT_TRUE(cache.load(kSyntheticKey).has_value());
}

TEST(RunCache, CraftedChunkStatsOutsideTheSupportedShapesAreAMiss)
{
    TempCacheDir tmp;
    RunCache cache(tmp.dir);
    cache.store(kSyntheticKey, syntheticRun());
    const std::string path = entryPath(tmp, kSyntheticKey);
    const std::vector<std::uint64_t> good = readWords(path);

    // Words 31..41 hold the chunk stats: bits, wires, bin count, the
    // bins, total, overflow, matches, candidates.
    auto craft = [&](std::uint64_t chunk_bits, std::uint64_t wires,
                     std::uint64_t num_bins, std::uint64_t bins_given) {
        std::vector<std::uint64_t> w(good.begin(), good.begin() + 31);
        w.insert(w.end(), {chunk_bits, wires, num_bins});
        w.insert(w.end(), bins_given, 1);
        w.insert(w.end(), {bins_given, 0, 136, 137});
        w.insert(w.end(), good.begin() + 42, good.end());
        writeSealedWords(path, w);
        return cache.load(kSyntheticKey);
    };

    // The crafting itself is sound: a supported shape loads.
    auto ok = craft(8, 3, 256, 256);
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(ok->result.chunks.chunkBits(), 8u);
    EXPECT_EQ(ok->result.chunks.totalChunks(), 256u);
    EXPECT_EQ(ok->processor.l2, 148.5);

    for (std::uint64_t bits : {0, 3, 5, 6, 7, 9, 16})
        EXPECT_FALSE(craft(bits, 3, 1u << bits, 1u << bits).has_value())
            << bits << "-bit chunks";
    EXPECT_FALSE(craft(2, 0, 4, 4).has_value()) << "no wires";
    EXPECT_FALSE(craft(2, 3, 3, 3).has_value()) << "3 bins, 2-bit chunks";
    EXPECT_FALSE(craft(2, 3, 8, 8).has_value()) << "8 bins, 2-bit chunks";
    // An oversized bin count fails the read before allocating.
    EXPECT_FALSE(craft(2, 3, 1u << 21, 0).has_value()) << "2^21 bins";
}

TEST(RunCache, CorruptEntryWarnsOnceNamingTheFile)
{
    TempCacheDir tmp;
    RunCache cache(tmp.dir);
    const std::string path = entryPath(tmp, kSyntheticKey);

    // An absent entry is a plain miss: nothing to report.
    testing::internal::CaptureStderr();
    EXPECT_FALSE(cache.load(kSyntheticKey).has_value());
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

    cache.store(kSyntheticKey, syntheticRun());
    std::string bytes = readBytes(path);
    bytes[bytes.size() / 2] = char(bytes[bytes.size() / 2] ^ 0x01);
    writeBytes(path, bytes);
    testing::internal::CaptureStderr();
    EXPECT_FALSE(cache.load(kSyntheticKey).has_value());
    EXPECT_FALSE(cache.load(kSyntheticKey).has_value());
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("corrupt run-cache entry \"" + path + "\""),
              std::string::npos) << err;
    EXPECT_NE(err.find("checksum mismatch"), std::string::npos) << err;
    EXPECT_EQ(err.find(path), err.rfind(path)) << "warned twice: " << err;
}

TEST(RunCache, CorruptEntryIsSimulatedAgainAndOverwritten)
{
    TempCacheDir tmp;
    setGlobalRunCacheDir(tmp.dir);

    auto cfg = tinyConfig("Radix");
    const AppRun first = runApp(cfg);
    const std::string path = entryPath(tmp, configHash(scaledConfig(cfg)));
    const std::string good = readBytes(path);
    std::string bad = good;
    bad[bad.size() / 2] = char(bad[bad.size() / 2] ^ 0x10);
    writeBytes(path, bad);

    testing::internal::CaptureStderr();
    auto before = runStats();
    const AppRun second = runApp(cfg);
    auto after = runStats();
    testing::internal::GetCapturedStderr();
    EXPECT_EQ(after.simulated.value() - before.simulated.value(), 1u);
    EXPECT_EQ(after.cache_hits.value() - before.cache_hits.value(), 0u);
    expectSameRun(first, second);
    EXPECT_EQ(readBytes(path), good);

    setGlobalRunCacheDir("");
}

TEST(RunCache, FailedStoreWarnsOnceIsNotCountedAndLeavesNoTempFile)
{
    // A non-empty directory where the entry belongs makes the rename
    // fail. Such a store was once silent, counted in cache_stores,
    // and left its temp file behind.
    TempCacheDir tmp;
    setGlobalRunCacheDir(tmp.dir);
    auto cfg = tinyConfig("Ocean");
    const std::string path = entryPath(tmp, configHash(scaledConfig(cfg)));
    std::filesystem::create_directories(path + "/occupied");

    testing::internal::CaptureStderr();
    auto before = runStats();
    runApp(cfg);
    runApp(cfg);
    auto after = runStats();
    std::string err = testing::internal::GetCapturedStderr();
    setGlobalRunCacheDir("");

    EXPECT_EQ(after.simulated.value() - before.simulated.value(), 2u);
    EXPECT_EQ(after.cache_stores.value(), before.cache_stores.value());
    const std::string warning =
        "cannot store run-cache entry \"" + path + "\"";
    EXPECT_NE(err.find(warning), std::string::npos) << err;
    EXPECT_EQ(err.find(warning), err.rfind(warning))
        << "warned twice: " << err;
    for (const auto &e : std::filesystem::directory_iterator(tmp.dir))
        EXPECT_EQ(e.path().string(), path) << "left behind";
}

TEST(RunCacheKnobs, BadValuesAreFatalAtStartup)
{
    // DESC_TRACE_FILE and DESC_SIM_CACHE are resolved during static
    // initialization, so each death test re-executes this binary with
    // the variable set: the child must die before main() reaches the
    // empty statement, and so before any pool worker could run.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string path =
        testing::TempDir() + "desc-no-such-dir/trace.log";
    setenv("DESC_TRACE_FILE", path.c_str(), 1);
    EXPECT_DEATH({}, "cannot open DESC_TRACE_FILE=\".*desc-no-such-dir/"
                     "trace.log\": No such file or directory");
    unsetenv("DESC_TRACE_FILE");

    // "off" once left the cache on and wrote entries.
    setenv("DESC_SIM_CACHE", "off", 1);
    EXPECT_DEATH({}, "invalid DESC_SIM_CACHE=\"off\" \\(want 0 or 1\\)");
    unsetenv("DESC_SIM_CACHE");
}

TEST(RunCacheKnobs, UncreatableCacheDirIsFatalBeforeAnyRun)
{
    // A cache directory under a regular file cannot be created. It
    // once left a warning and a run with no cache; now the first
    // submitted point dies on the submitting thread, before a pool
    // worker starts it (a fatal exit inside a worker hangs the pool).
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    TempCacheDir tmp;
    const std::string file = tmp.dir + "/not-a-dir";
    std::ofstream(file) << "x";
    setenv("DESC_SIM_CACHE_DIR", (file + "/cache").c_str(), 1);
    const std::string want =
        "cannot create DESC_SIM_CACHE_DIR=\".*not-a-dir/cache\": "
        "Not a directory";
    EXPECT_DEATH(Runner(2).run({tinyConfig()}), want);
    EXPECT_DEATH(runApp(tinyConfig()), want);
    unsetenv("DESC_SIM_CACHE_DIR");
}

TEST(RunCacheKnobs, NoDirectoryUntilTheFirstRun)
{
    // Repointing the cache, as test binaries do, must not create the
    // environment's directory on the way.
    TempCacheDir tmp;
    const std::string dir = tmp.dir + "/default";
    setenv("DESC_SIM_CACHE_DIR", dir.c_str(), 1);
    setGlobalRunCacheDir("");
    unsetenv("DESC_SIM_CACHE_DIR");
    EXPECT_FALSE(std::filesystem::exists(dir));
    EXPECT_FALSE(globalRunCache().enabled());
}

TEST(RunCache, StoreLoadRoundTrips)
{
    TempCacheDir tmp;
    RunCache cache(tmp.dir);
    ASSERT_TRUE(cache.enabled());

    auto cfg = scaledConfig(tinyConfig());
    cfg.l2.collect_chunk_stats = true; // exercise ChunkStats fields
    AppRun run = runScaledApp(cfg);

    auto key = configHash(cfg);
    EXPECT_FALSE(cache.load(key).has_value());
    cache.store(key, run);

    auto loaded = cache.load(key);
    ASSERT_TRUE(loaded.has_value());
    expectSameRun(*loaded, run);
}

TEST(RunCache, CorruptEntryIsAMiss)
{
    TempCacheDir tmp;
    RunCache cache(tmp.dir);

    auto cfg = scaledConfig(tinyConfig());
    auto key = configHash(cfg);
    cache.store(key, runScaledApp(cfg));
    ASSERT_TRUE(cache.load(key).has_value());

    // Clobber every entry in the directory with garbage.
    for (const auto &e :
         std::filesystem::directory_iterator(tmp.dir)) {
        std::ofstream out(e.path(),
                          std::ios::binary | std::ios::trunc);
        out << "not a run cache entry";
    }
    EXPECT_FALSE(cache.load(key).has_value());
}

TEST(RunCache, TruncatedEntryIsAMiss)
{
    TempCacheDir tmp;
    RunCache cache(tmp.dir);

    auto cfg = scaledConfig(tinyConfig());
    auto key = configHash(cfg);
    cache.store(key, runScaledApp(cfg));

    for (const auto &e :
         std::filesystem::directory_iterator(tmp.dir))
        std::filesystem::resize_file(e.path(), 40);
    EXPECT_FALSE(cache.load(key).has_value());
}

TEST(RunCache, DisabledCacheLoadsNothing)
{
    RunCache cache("");
    EXPECT_FALSE(cache.enabled());

    auto cfg = scaledConfig(tinyConfig());
    auto key = configHash(cfg);
    cache.store(key, runScaledApp(cfg)); // must be a no-op
    EXPECT_FALSE(cache.load(key).has_value());
}

TEST(RunCache, RunAppMemoizesThroughTheGlobalCache)
{
    TempCacheDir tmp;
    setGlobalRunCacheDir(tmp.dir);

    auto cfg = tinyConfig("Barnes");
    auto before = runStats();
    AppRun first = runApp(cfg);
    auto mid = runStats();
    EXPECT_EQ(mid.simulated.value() - before.simulated.value(), 1u);
    EXPECT_EQ(mid.cache_stores.value() - before.cache_stores.value(),
              1u);

    AppRun second = runApp(cfg);
    auto after = runStats();
    EXPECT_EQ(after.simulated.value() - mid.simulated.value(), 0u);
    EXPECT_EQ(after.cache_hits.value() - mid.cache_hits.value(), 1u);
    expectSameRun(first, second);

    setGlobalRunCacheDir("");
}
