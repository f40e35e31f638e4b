/**
 * @file
 * Ablation (Section 3.3): adaptive frequent-value skipping vs zero
 * and last-value skipping.
 *
 * The paper "also considered adaptive techniques for detecting and
 * encoding frequent non-zero chunks at runtime; however, the
 * attainable delay and energy improvements are not appreciable"
 * because the non-zero chunk values are nearly uniform (Figure 12).
 * This harness runs all four skip policies over the same modeled
 * block streams and reports transitions and transfer windows — the
 * adaptive policy should land at (or behind) zero skipping.
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
    const SkipMode modes[] = {SkipMode::None, SkipMode::Zero,
                              SkipMode::LastValue, SkipMode::Adaptive};
    const unsigned kBlocks = 3000;

    struct Row
    {
        SkipMode mode;
        double flips, skipped, cycles, blocks;
    };
    std::vector<Row> rows;
    for (SkipMode mode : modes) {
        double flips = 0, skipped = 0, cycles = 0, blocks = 0;
        for (const auto &app : workloads::parallelApps()) {
            DescConfig cfg;
            cfg.skip = mode;
            DescScheme scheme(cfg);
            workloads::ValueModel values(app, 7);
            BitVec bv(kBlockBits);
            for (unsigned b = 0; b < kBlocks / 16; b++) {
                auto blk = values.block(Addr(b) * 64);
                bv.fromBytes(reinterpret_cast<const std::uint8_t *>(
                                 blk.data()),
                             64);
                auto r = scheme.transfer(bv);
                flips += double(r.totalFlips());
                skipped += double(r.skipped);
                cycles += double(r.cycles);
                blocks += 1;
            }
        }
        rows.push_back(Row{mode, flips, skipped, cycles, blocks});
    }

    double zero_flips = rows[1].flips; // SkipMode::Zero
    Table t({"policy", "flips/block", "skipped/block", "window",
             "vs zero-skip"});
    for (const auto &r : rows) {
        t.row()
            .add(skipModeName(r.mode))
            .add(r.flips / r.blocks, 1)
            .add(r.skipped / r.blocks, 1)
            .add(r.cycles / r.blocks, 1)
            .add(r.flips / zero_flips, 3);
    }
    t.print("Ablation: skip-policy comparison over the modeled app "
            "streams (paper: adaptive gains are 'not appreciable' "
            "over zero skipping)");
    std::printf("note: like last-value skipping, the adaptive policy "
                "needs per-wire tracking tables at the cache\n"
                "controller whose access energy consumes the residual "
                "wire-transition advantage (Section 5.2).\n");
}

const Figure ablation_adaptive_skip{"ablation_adaptive_skip", nullptr,
                                    render};

} // namespace desc::bench
