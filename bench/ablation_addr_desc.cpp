/**
 * @file
 * Ablation (Section 3.2.1): why DESC is not applied to the address
 * and control wires.
 *
 * The paper transmits addresses with conventional binary encoding
 * because "the physical wire activity caused by the address bits in
 * conventional binary encoding is relatively low, which makes it
 * inefficient to apply DESC to the address wires." This harness runs
 * real modeled address streams through both encodings on a 32-bit
 * address bus and compares transitions and occupancy.
 */

#include <cstdio>

#include "benchutil.hh"
#include "core/descscheme.hh"
#include "encoding/binary.hh"
#include "workloads/stream.hh"

namespace desc::bench {

using namespace core;

static void
render(const Runs &)
{
    const unsigned kOps = 4000;

    double bin_flips = 0, bin_cycles = 0;
    double desc_flips = 0, desc_cycles = 0;
    double data_activity = 0;
    std::uint64_t ops = 0;

    for (const auto &app : workloads::parallelApps()) {
        workloads::ValueModel values(app, 3);
        workloads::AppStream stream(app, values, 0, 0, 3);

        encoding::SchemeConfig bcfg;
        bcfg.bus_wires = 32;
        bcfg.block_bits = 32;
        encoding::BinaryScheme binary(bcfg);

        DescConfig dcfg;
        dcfg.bus_wires = 8;
        dcfg.chunk_bits = 4;
        dcfg.block_bits = 32;
        dcfg.skip = SkipMode::Zero;
        DescScheme desc_addr(dcfg);

        cpu::MemOp op;
        for (unsigned i = 0; i < kOps / 16; i++) {
            stream.nextGap(op);
            // L2 request addresses are block-aligned; take the low 32
            // address bits above the block offset.
            BitVec addr(32, (op.addr >> 6) & 0xffffffffull);
            auto b = binary.transfer(addr);
            auto d = desc_addr.transfer(addr);
            bin_flips += double(b.totalFlips());
            bin_cycles += double(b.cycles);
            desc_flips += double(d.totalFlips());
            desc_cycles += double(d.cycles);
            ops++;
        }
    }

    data_activity = bin_flips / double(ops) / 32.0;

    Table t({"encoding", "flips/request", "activity/wire",
             "cycles/request"});
    t.row()
        .add("binary (32 wires)")
        .add(bin_flips / double(ops), 2)
        .add(data_activity, 3)
        .add(bin_cycles / double(ops), 2);
    t.row()
        .add("zero-skip DESC (8 wires)")
        .add(desc_flips / double(ops), 2)
        .add(desc_flips / double(ops) / 8.0, 3)
        .add(desc_cycles / double(ops), 2);
    t.print("Ablation: DESC on the address wires (paper opts out: "
            "binary address activity is already low)");

    std::printf("DESC flip ratio on addresses: %.2fx for %.1fx the "
                "latency -> %s\n",
                bin_flips / desc_flips,
                desc_cycles / bin_cycles,
                desc_flips * 1.0 < bin_flips
                    ? "marginal energy win, large latency loss"
                    : "no win at all");
}

const Figure ablation_addr_desc{"ablation_addr_desc", nullptr, render};

} // namespace desc::bench
