/**
 * @file
 * Figures 28 and 29, drawn from the same runs: SECDED ECC for binary
 * encoding and zero-skipped DESC at various (W, S) points, where W is
 * the data-bus width and S the Hamming segment size: 64-64, 128-128
 * binary and 128-64, 128-128 DESC, normalized to 64-bit binary with
 * the (72,64) code, for each of the sixteen parallel applications.
 *
 * Figure 28: execution time. Paper: DESC incurs ~1% over binary.
 *
 * Figure 29: L2 energy. Paper: zero-skipped DESC improves cache
 * energy by 1.82x with (72,64) and 1.92x with (137,128).
 */

#include <cstdio>

#include "benchutil.hh"

namespace desc::bench {

static Points
points()
{
    struct Ecc
    {
        encoding::SchemeKind kind;
        unsigned wires, segment;
    };
    const Ecc eccs[] = {
        {encoding::SchemeKind::Binary, 64, 64},
        {encoding::SchemeKind::Binary, 128, 128},
        {encoding::SchemeKind::DescZeroSkip, 128, 64},
        {encoding::SchemeKind::DescZeroSkip, 128, 128},
    };
    Points pts;
    for (const Ecc &e : eccs)
        addAppPoints(pts, workloads::parallelApps(), kAppBudget,
                     [&e](sim::SystemConfig &cfg) {
                         sim::applyScheme(cfg, e.kind);
                         cfg.l2.org.bus_wires = e.wires;
                         cfg.l2.scheme_cfg.bus_wires = e.wires;
                         cfg.l2.ecc = true;
                         cfg.l2.ecc_segment_bits = e.segment;
                     });
    return pts;
}

static const std::vector<std::string> kCols = {
    "app", "64-64 Binary", "128-128 Binary", "128-64 DESC",
    "128-128 DESC"};

static void
renderTime(const Runs &runs)
{
    const auto &apps = workloads::parallelApps();
    Table t(kCols);
    addAppRows(t, apps, normalizedToFirst(runs, apps.size(), cycles));
    t.print("Figure 28: execution time under SECDED ECC, normalized "
            "to 64-bit binary with (72,64) (paper: DESC ~1%)");
}

static void
renderEnergy(const Runs &runs)
{
    const auto &apps = workloads::parallelApps();
    auto norm = normalizedToFirst(runs, apps.size(), l2Energy);
    Table t(kCols);
    addAppRows(t, apps, norm);
    t.print("Figure 29: L2 energy under SECDED ECC, normalized to "
            "64-bit binary with (72,64)");

    std::printf("DESC reduction with (72,64): %.2fx (paper 1.82x); "
                "with (137,128): %.2fx (paper 1.92x)\n",
                1.0 / geomean(norm[2]),
                geomean(norm[1]) / geomean(norm[3]));
}

const Figure fig28_ecc_time{"fig28_ecc_time", points, renderTime};
const Figure fig29_ecc_energy{"fig29_ecc_energy", points, renderEnergy};

} // namespace desc::bench
