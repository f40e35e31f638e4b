/**
 * @file
 * Figure 27: impact of L2 capacity (512KB .. 64MB) on cache energy
 * for conventional binary and zero-skipped DESC, summed over the eight
 * sweep applications and normalized to the 8MB binary cache. Paper:
 * DESC improves cache energy by 1.87x at 512KB down to 1.75x at 64MB.
 */

#include <string>

#include "benchutil.hh"

namespace desc::bench {

constexpr std::uint64_t kMB = 1ull << 20;
const std::uint64_t kSizes[] = {kMB / 2, kMB,     2 * kMB,  4 * kMB,
                                8 * kMB, 16 * kMB, 32 * kMB, 64 * kMB};

/** The 8MB binary reference, then per capacity a binary and a
 *  ZS-DESC slice. */
static Points
points()
{
    Points pts;
    addAppPoints(pts, sweepApps(), kSweepBudget);
    for (std::uint64_t size : kSizes)
        for (const auto &cfg : binaryThenDesc(
                 sweepApps(), kSweepBudget, [=](sim::SystemConfig &c) {
                     c.l2.org.capacity_bytes = size;
                 }))
            pts.push_back(cfg);
    return pts;
}

static void
render(const Runs &runs)
{
    auto energy = sliceSums(runs, sweepApps().size(), l2Energy);
    Table t({"capacity", "Binary (norm)", "ZS-DESC (norm)",
             "reduction"});
    for (std::size_t s = 0; s < std::size(kSizes); s++) {
        std::uint64_t size = kSizes[s];
        double b = energy[1 + 2 * s], d = energy[2 + 2 * s];
        std::string label = size >= kMB
            ? std::to_string(size / kMB) + "MB"
            : std::to_string(size >> 10) + "KB";
        t.row().add(label).add(b / energy[0], 3).add(d / energy[0], 3)
            .add(b / d, 2);
    }
    t.print("Figure 27: L2 energy vs capacity, normalized to the 8MB "
            "binary cache (paper: DESC reduction 1.87x..1.75x)");
}

const Figure fig27_cache_size{"fig27_cache_size", points, render};

} // namespace desc::bench
