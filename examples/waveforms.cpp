/**
 * @file
 * Protocol illustration: replays the paper's worked examples through
 * the cycle-accurate DESC link — Figure 5 (two 3-bit chunks on one
 * wire), Figure 10a (basic DESC time window), and Figure 10b
 * (zero-skipped window) — and records the wire-level waveforms.
 *
 * Every example becomes one module scope in a GTKWave-loadable VCD
 * file (DESC_VCD_OUT, default "waveforms.vcd"); the same per-cycle
 * samples are rendered as ASCII rows on stdout, so the printed art
 * and the .vcd can never disagree. DESC_TRACE=link additionally
 * prints the transmitter/receiver protocol events as they fire.
 *
 * Build and run:  ./build/examples/waveforms
 * Inspect:        gtkwave waveforms.vcd
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/env.hh"
#include "core/chunk.hh"
#include "core/link.hh"
#include "sim/vcd.hh"

using namespace desc;
using namespace desc::core;

namespace {

struct Example
{
    const char *scope;
    const char *title;
    DescConfig cfg;
    std::vector<std::uint8_t> chunks;
    sim::VcdWriter::BundleSignals sigs;
};

/**
 * Run one example through a DescLink. The link's wire hook feeds the
 * identical per-cycle bundle to the VCD scope (shifted onto the
 * file's shared time axis by @p t_base) and to the printed ASCII
 * rows, then returns the first free time after this example.
 */
std::uint64_t
showExample(sim::VcdWriter &vcd, Example &ex, std::uint64_t t_base)
{
    const DescConfig &cfg = ex.cfg;
    BitVec block = joinChunks(ex.chunks, cfg.chunk_bits,
                              unsigned(ex.chunks.size()) * cfg.chunk_bits);
    DescLink link(cfg);

    unsigned wires = cfg.activeWires();
    std::vector<std::string> rows(wires + 2);
    std::uint64_t t_end = t_base;
    link.setWireHook([&](Cycle t, const WireBundle &w) {
        if (vcd.isOpen())
            vcd.sampleBundle(ex.sigs, t_base + t, w);
        t_end = t_base + t;
        rows[0].push_back(w.reset_skip ? '1' : '0');
        for (unsigned i = 0; i < wires; i++)
            rows[1 + i].push_back(w.data.bit(i) ? '1' : '0');
        rows[wires + 1].push_back(w.sync ? '1' : '0');
    });

    BitVec received(block.width());
    auto result = link.transferBlock(block, &received);

    std::printf("%s\n", ex.title);
    std::printf("  chunks in:  ");
    for (auto c : ex.chunks)
        std::printf("%u ", unsigned(c));
    std::printf(" (%s, %llu cycles)\n", skipModeName(cfg.skip),
                (unsigned long long)result.cycles);
    std::printf("  reset/skip  %s\n", rows[0].c_str());
    for (unsigned i = 0; i < wires; i++)
        std::printf("  data[%u]     %s\n", i, rows[1 + i].c_str());
    std::printf("  sync        %s\n", rows[wires + 1].c_str());

    auto out = splitChunks(received, cfg.chunk_bits);
    std::printf("  chunks out: ");
    for (auto c : out)
        std::printf("%u ", unsigned(c));
    std::printf("\n\n");

    // A small gap keeps the scopes visually separate in a viewer.
    return t_end + 4;
}

} // namespace

int
main()
{
    DescConfig fig5;
    fig5.bus_wires = 1;
    fig5.chunk_bits = 3;
    fig5.block_bits = 6;
    fig5.skip = SkipMode::None;

    DescConfig fig10a;
    fig10a.bus_wires = 4;
    fig10a.chunk_bits = 3;
    fig10a.block_bits = 12;
    fig10a.skip = SkipMode::None;

    DescConfig fig10b = fig10a;
    fig10b.skip = SkipMode::Zero;

    DescConfig lvs = fig10a;
    lvs.skip = SkipMode::LastValue;

    std::vector<Example> examples = {
        {"fig5", "Figure 5: two 3-bit chunks (2, then 1) on one wire",
         fig5, {2, 1}, {}},
        {"fig10a", "Figure 10a: basic DESC, chunks (0, 0, 5, 0)",
         fig10a, {0, 0, 5, 0}, {}},
        {"fig10b", "Figure 10b: zero-skipped DESC, chunks (0, 0, 5, 0)",
         fig10b, {0, 0, 5, 0}, {}},
        {"lvs", "Last-value skipping: block (5, 1, 5, 2)", lvs,
         {5, 1, 5, 2}, {}},
    };

    std::string vcd_path =
        desc::env::stringOr(desc::env::Var::VcdOut, "waveforms.vcd");
    sim::VcdWriter vcd;
    bool vcd_ok = vcd.open(vcd_path);
    if (vcd_ok) {
        // VCD wants every signal declared before the first sample.
        for (auto &ex : examples)
            ex.sigs = vcd.addBundle(ex.scope, ex.cfg.activeWires());
        vcd.endHeader();
    }

    std::uint64_t t = 0;
    for (auto &ex : examples)
        t = showExample(vcd, ex, t);

    vcd.close();
    if (vcd_ok)
        std::printf("waveforms written to %s\n", vcd_path.c_str());
    return 0;
}
