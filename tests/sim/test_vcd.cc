/**
 * @file
 * Unit tests for the VCD waveform writer: header layout, change-only
 * value emission, bundle sampling, and time-ordering enforcement.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>

#include "core/chunk.hh"
#include "core/link.hh"
#include "sim/vcd.hh"

using namespace desc;
using namespace desc::sim;

namespace {

/** A unique temp .vcd path, removed on destruction. */
struct TempVcd
{
    std::string path;

    TempVcd()
    {
        static int counter = 0;
        path = (std::filesystem::temp_directory_path()
                / ("desc-vcd-test-" + std::to_string(getpid()) + "-"
                   + std::to_string(counter++) + ".vcd"))
                   .string();
    }

    ~TempVcd()
    {
        std::error_code ec;
        std::filesystem::remove(path, ec);
    }

    std::string
    contents() const
    {
        std::ifstream in(path);
        return std::string(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    }
};

} // namespace

TEST(Vcd, HeaderDeclaresScopedSignals)
{
    TempVcd tmp;
    VcdWriter vcd;
    ASSERT_TRUE(vcd.open(tmp.path));
    auto sigs = vcd.addBundle("fig5", 2);
    vcd.endHeader();
    vcd.close();

    std::string text = tmp.contents();
    EXPECT_NE(text.find("$timescale 1ns $end"), std::string::npos);
    EXPECT_NE(text.find("$scope module fig5 $end"), std::string::npos);
    EXPECT_NE(text.find("reset_skip $end"), std::string::npos);
    EXPECT_NE(text.find("data0 $end"), std::string::npos);
    EXPECT_NE(text.find("data1 $end"), std::string::npos);
    EXPECT_NE(text.find("sync $end"), std::string::npos);
    EXPECT_NE(text.find("$upscope $end"), std::string::npos);
    EXPECT_NE(text.find("$enddefinitions $end"), std::string::npos);
    EXPECT_EQ(sigs.data.size(), std::size_t{2});
}

TEST(Vcd, FirstTimestepDumpsEverySignal)
{
    TempVcd tmp;
    VcdWriter vcd;
    ASSERT_TRUE(vcd.open(tmp.path));
    unsigned a = vcd.addSignal("top", "a");
    unsigned b = vcd.addSignal("top", "b");
    vcd.endHeader();
    vcd.set(a, true);
    vcd.set(b, false);
    vcd.timestep(0);
    vcd.close();

    std::string text = tmp.contents();
    EXPECT_NE(text.find("$dumpvars"), std::string::npos);
    EXPECT_NE(text.find("#0\n"), std::string::npos);
    EXPECT_NE(text.find("1!"), std::string::npos); // a = 1
    EXPECT_NE(text.find("0\""), std::string::npos); // b = 0
}

TEST(Vcd, OnlyChangesAreEmitted)
{
    TempVcd tmp;
    VcdWriter vcd;
    ASSERT_TRUE(vcd.open(tmp.path));
    unsigned a = vcd.addSignal("top", "a");
    vcd.endHeader();

    vcd.set(a, true);
    vcd.timestep(0);
    vcd.set(a, true); // unchanged: no #1 stamp at all
    vcd.timestep(1);
    vcd.set(a, false); // changed: #2 stamp
    vcd.timestep(2);
    vcd.close();

    std::string text = tmp.contents();
    EXPECT_NE(text.find("#0\n"), std::string::npos);
    EXPECT_EQ(text.find("#1\n"), std::string::npos);
    EXPECT_NE(text.find("#2\n0!"), std::string::npos);
}

TEST(Vcd, SampleBundleTracksWireLevels)
{
    TempVcd tmp;
    VcdWriter vcd;
    ASSERT_TRUE(vcd.open(tmp.path));
    auto sigs = vcd.addBundle("link", 2);
    vcd.endHeader();

    core::WireBundle w(2);
    w.reset_skip = true;
    w.data.setBit(0, false);
    w.data.setBit(1, true);
    w.sync = false;
    vcd.sampleBundle(sigs, 0, w);

    w.data.setBit(0, true);
    vcd.sampleBundle(sigs, 1, w);
    vcd.close();

    std::string text = tmp.contents();
    // Second sample: only data[0] changed.
    auto t1 = text.find("#1\n");
    ASSERT_NE(t1, std::string::npos);
    std::string after = text.substr(t1);
    EXPECT_NE(after.find("1\""), std::string::npos); // data0 id is "
    EXPECT_EQ(after.find("1!"), std::string::npos);  // reset unchanged
}

TEST(Vcd, LinkWireHookProducesLoadableDump)
{
    // End-to-end: a real DESC transfer recorded through the DescLink
    // wire hook yields a declaration-complete, time-ordered file.
    TempVcd tmp;
    VcdWriter vcd;
    ASSERT_TRUE(vcd.open(tmp.path));

    core::DescConfig cfg;
    cfg.bus_wires = 4;
    cfg.chunk_bits = 3;
    cfg.block_bits = 12;
    cfg.skip = core::SkipMode::Zero;

    auto sigs = vcd.addBundle("link", cfg.activeWires());
    vcd.endHeader();

    core::DescLink link(cfg);
    unsigned samples = 0;
    link.setWireHook([&](Cycle t, const core::WireBundle &w) {
        vcd.sampleBundle(sigs, t, w);
        samples++;
    });
    auto result = link.transferBlock(
        core::joinChunks({0, 0, 5, 0}, cfg.chunk_bits, cfg.block_bits));
    vcd.close();

    EXPECT_EQ(samples, result.cycles);
    std::string text = tmp.contents();
    EXPECT_NE(text.find("$enddefinitions $end"), std::string::npos);
    EXPECT_NE(text.find("$dumpvars"), std::string::npos);
    EXPECT_NE(text.find("#0"), std::string::npos);
}

TEST(VcdDeath, NonIncreasingTimeAsserts)
{
    TempVcd tmp;
    VcdWriter vcd;
    ASSERT_TRUE(vcd.open(tmp.path));
    unsigned a = vcd.addSignal("top", "a");
    vcd.endHeader();
    vcd.set(a, true);
    vcd.timestep(5);
    vcd.set(a, false);
    EXPECT_DEATH(vcd.timestep(5), "strictly increasing");
}

TEST(VcdDeath, DeclarationAfterHeaderAsserts)
{
    TempVcd tmp;
    VcdWriter vcd;
    ASSERT_TRUE(vcd.open(tmp.path));
    vcd.addSignal("top", "a");
    vcd.endHeader();
    EXPECT_DEATH(vcd.addSignal("top", "b"), "after endHeader");
}

TEST(Vcd, OpenFailureWarnsAndReturnsFalse)
{
    VcdWriter vcd;
    EXPECT_FALSE(vcd.open("/nonexistent-dir/x/y.vcd"));
    EXPECT_FALSE(vcd.isOpen());
}
