/**
 * @file
 * Ablation: decomposition of DESC's transition budget and the window
 * narrowing from value skipping (Figure 10 quantified).
 *
 * Splits the zero-skipped DESC transition count into data strobes,
 * reset/skip pulses, and the half-frequency synchronization strobe,
 * and reports the time-window shrinkage that excluding the skip value
 * from the count list buys (Section 3.3).
 */

#include <cstdio>

#include "benchutil.hh"
#include "core/descscheme.hh"
#include "workloads/valuemodel.hh"

namespace desc::bench {

using namespace core;

static void
render(const Runs &)
{
    const unsigned kBlocks = 200;

    double data = 0, resets = 0, sync = 0;
    double basic_cycles = 0, zs_cycles = 0, blocks = 0;

    for (const auto &app : workloads::parallelApps()) {
        DescConfig zs;
        zs.skip = SkipMode::Zero;
        DescScheme zscheme(zs);
        DescConfig basic;
        basic.skip = SkipMode::None;
        DescScheme bscheme(basic);

        workloads::ValueModel values(app, 5);
        BitVec bv(kBlockBits);
        for (unsigned b = 0; b < kBlocks; b++) {
            auto blk = values.block(Addr(b) * 64);
            bv.fromBytes(
                reinterpret_cast<const std::uint8_t *>(blk.data()), 64);
            auto r = zscheme.transfer(bv);
            // control = reset/skip pulses + one sync toggle per cycle.
            data += double(r.data_flips);
            sync += double(r.cycles);
            resets += double(r.control_flips - r.cycles);
            zs_cycles += double(r.cycles);
            basic_cycles += double(bscheme.transfer(bv).cycles);
            blocks += 1;
        }
    }

    Table t({"component", "transitions/block", "share"});
    double total = data + resets + sync;
    t.row().add("data strobes").add(data / blocks, 1)
        .add(data / total, 3);
    t.row().add("reset/skip pulses").add(resets / blocks, 1)
        .add(resets / total, 3);
    t.row().add("sync strobe").add(sync / blocks, 1)
        .add(sync / total, 3);
    t.row().add("total").add(total / blocks, 1).add(1.0, 3);
    t.print("Ablation: zero-skipped DESC transition budget per "
            "512-bit block (128 wires, 4-bit chunks)");

    std::printf("time window: basic %.1f cycles -> zero-skipped %.1f "
                "cycles (%.0f%% narrower; Figure 10's effect)\n",
                basic_cycles / blocks, zs_cycles / blocks,
                100.0 * (1.0 - zs_cycles / basic_cycles));
}

const Figure ablation_protocol{"ablation_protocol", nullptr, render};

} // namespace desc::bench
