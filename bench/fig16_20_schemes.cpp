/**
 * @file
 * Figures 16 and 20, drawn from the same runs: all eight
 * data-transfer techniques on each of the sixteen parallel
 * applications, normalized per application to conventional binary
 * encoding.
 *
 * Figure 16: L2 cache energy per application. Paper headline:
 * zero-skipped DESC 1.81x, last-value skipped 1.77x, basic DESC ~11%,
 * bus-invert ~19%, DZC ~10%.
 *
 * Figure 20: execution time, as the geometric mean over the
 * applications. Paper: the skipped DESC variants cost <2%, the
 * compression/invert baselines ~1%.
 */

#include <cstdio>
#include <string>

#include "benchutil.hh"

namespace desc::bench {

static Points
points()
{
    return schemePoints(workloads::parallelApps(), kAppBudget);
}

static std::string
schemeName(unsigned s)
{
    return sim::shortSchemeName(core::allSchemeKinds()[s]);
}

static void
renderEnergy(const Runs &runs)
{
    const auto &apps = workloads::parallelApps();
    auto norm = normalizedToFirst(runs, apps.size(), l2Energy);
    std::vector<std::string> cols = {"app"};
    for (unsigned s = 0; s < encoding::kNumSchemes; s++)
        cols.push_back(schemeName(s));
    Table t(cols);
    addAppRows(t, apps, norm);
    t.print("Figure 16: L2 energy normalized to binary encoding "
            "(paper geomeans: DZC 0.90, BIC 0.81, ZS-BIC 0.80, "
            "DESC 0.89, ZS-DESC 0.55, LVS-DESC 0.56)");

    std::printf("zero-skipped DESC reduction: %.2fx (paper 1.81x)\n",
                1.0 / geomean(norm[6]));
    std::printf("last-value DESC reduction:   %.2fx (paper 1.77x)\n",
                1.0 / geomean(norm[7]));
}

static void
renderTime(const Runs &runs)
{
    auto norm = normalizedToFirst(runs, workloads::parallelApps().size(),
                                  cycles);
    Table t({"scheme", "execution time (norm)"});
    for (unsigned s = 0; s < encoding::kNumSchemes; s++)
        t.row().add(schemeName(s)).add(geomean(norm[s]), 4);
    t.print("Figure 20: execution time normalized to binary encoding "
            "(paper: ZS/LVS DESC < 1.02, baselines ~1.01)");
}

const Figure fig16_scheme_energy{"fig16_scheme_energy", points,
                                 renderEnergy};
const Figure fig20_exec_time{"fig20_exec_time", points, renderTime};

} // namespace desc::bench
