/**
 * @file
 * Figure 30: execution time of the eight single-threaded SPEC CPU 2006
 * applications on one 4-issue out-of-order core (four times the
 * per-app budget) with zero-skipped DESC at the L2, normalized to
 * binary encoding. Paper: +6% on average — the latency-sensitive
 * design tolerates DESC's longer transfer windows far less than the
 * multithreaded machine.
 */

#include "benchutil.hh"

namespace desc::bench {

static Points
points()
{
    return binaryThenDesc(workloads::specApps(), 4 * kAppBudget,
                          [](sim::SystemConfig &cfg) {
                              cfg.cpu = sim::CpuKind::OutOfOrder;
                              cfg.threads_per_core = 1;
                          });
}

static void
render(const Runs &runs)
{
    const auto &apps = workloads::specApps();
    Table t({"app", "exec time (norm)"});
    addAppRows(t, apps, {normalizedToFirst(runs, apps.size(), cycles)[1]});
    t.print("Figure 30: out-of-order execution time with zero-skipped "
            "DESC, normalized to binary (paper geomean ~1.06)");
}

const Figure fig30_spec_ooo{"fig30_spec_ooo", points, render};

} // namespace desc::bench
